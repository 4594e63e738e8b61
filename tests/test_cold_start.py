"""
What a fresh `qlef` process imports.

Each check runs in a new interpreter and compares its modules with those a
bare `python -c pass` loads, because `site` may already import some (re,
typing and pathlib here). The command modules and the stdlib modules that
only the old dataclass records and the rational gcd needed must stay out;
a command loads only the command modules it runs, and writing --output loads
nothing more.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qlefschetz.catalog import xab
from qlefschetz.serialize import dumps_canonical, fibration_to_obj

SRC = Path(__file__).resolve().parent.parent / "src"
STDLIB_LEFT_OUT = {"dataclasses", "inspect", "fractions", "decimal"}
COMMAND_MODULES = {"qlefschetz.catalog", "qlefschetz.moves", "qlefschetz.obstructions"}


def modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    script = f"{code}\nimport sys\nprint()\nprint(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(done.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def bare() -> set[str]:
    return modules_after("pass")


@pytest.fixture(scope="module")
def fibration(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cold") / "xab.json"
    path.write_text(dumps_canonical(fibration_to_obj(xab(3, 5, 3))), encoding="utf-8")
    return path


def test_cli_import_loads_no_command_module(bare):
    added = modules_after("import qlefschetz.cli") - bare
    assert "qlefschetz.cli" in added
    assert not added & (STDLIB_LEFT_OUT | COMMAND_MODULES)


@pytest.mark.parametrize("argv", [["verify"], ["compute", "det"]], ids=" ".join)
def test_verify_and_compute_load_no_command_module(bare, fibration, argv):
    call = f"from qlefschetz.cli import main\nmain({argv + [str(fibration)]!r})"
    added = modules_after(call) - bare
    assert "qlefschetz.serialize" in added
    assert not added & (STDLIB_LEFT_OUT | COMMAND_MODULES)


def test_obstruct_loads_no_fractions(bare, fibration):
    added = modules_after(f"from qlefschetz.cli import main\nmain(['obstruct', {str(fibration)!r}])")
    assert "qlefschetz.obstructions" in added - bare
    assert not (added - bare) & STDLIB_LEFT_OUT


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["catalog", "xab", "--a", "3", "--b", "5", "--n", "3"], {"catalog", "moves"}),
        (["twist", "{file}", "t2 t1^-1", "--target-index", "1"], {"moves"}),
        (["move", "{file}", "hurwitz", "--k", "2"], {"moves"}),
    ],
    ids=["catalog xab", "twist", "move hurwitz"],
)
def test_catalog_twist_and_move_load_only_their_command_modules(bare, fibration, argv, loaded):
    argv = [a.format(file=fibration) for a in argv]
    added = modules_after(f"from qlefschetz.cli import main\nmain({argv!r})") - bare
    expected = {"qlefschetz." + name for name in loaded}
    assert added & COMMAND_MODULES == expected
    assert not added & STDLIB_LEFT_OUT


def test_move_output_loads_nothing_more(fibration):
    argv = ["move", str(fibration), "hurwitz", "--k", "2"]
    written = argv + ["--output", str(fibration.with_name("moved.json"))]
    plain, loaded = (
        modules_after(f"from qlefschetz.cli import main\nmain({a!r})") for a in (argv, written)
    )
    assert loaded == plain
