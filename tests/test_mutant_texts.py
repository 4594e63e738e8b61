"""
Every mutant in tests/mutants.py still applies to src/: its text occurs
exactly once, and the tests it names exist. Whether the tests kill it is
checked by running `python tests/mutants.py`, which takes minutes.
"""

from __future__ import annotations

import pytest

from mutants import MUTANTS, ROOT, SRC


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_the_mutant_text_occurs_once(mutant):
    text = (SRC / "qlefschetz" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.text) == 1
    assert mutant.replacement != mutant.text


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_the_mutant_names_existing_tests(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        path, _, name = test_id.partition("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert not name or f"def {name}(" in source


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
