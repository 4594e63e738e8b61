"""The docstring examples of every qlefschetz module run as tests."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import qlefschetz

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(qlefschetz.__path__, "qlefschetz.")
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_examples_are_found():
    total = sum(
        doctest.testmod(importlib.import_module(name)).attempted for name in MODULES
    )
    assert total >= 10
