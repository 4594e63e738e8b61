"""
Every span target of the benchmark's tracer names something that exists.

bench/tracer.py patches the functions listed in its TARGETS by name, so a
refactor that deletes or renames one of them (exact_div, say, or
cli._load_fibration) would break `bench/run.py --trace 1`. This test loads
that file as it is and resolves each target the way Tracer.install does.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer_targets", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("modname, attr", [t[:2] for t in TARGETS], ids=lambda x: x)
def test_tracer_target_resolves(modname, attr):
    module = importlib.import_module("qlefschetz." + modname)
    owner_name, _, fname = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    raw = vars(owner).get(fname)
    assert raw is not None, f"qlefschetz.{modname}.{attr} is gone"
    assert callable(raw.__func__ if isinstance(raw, classmethod) else raw)
