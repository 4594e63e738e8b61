"""
Each subcommand computes each invariant it reports once.

Every subcommand runs once through `cli.main`, with --output, on the band
datum xab(3, 5, 3) and on the mirror plane mirror_p2(4); the catalog
commands build their own datum. Counting wrappers replace the functions
that carry the work (validation's `_regenerated`, elimination's `_bareiss`,
the inverse, the kernel, the renderer, the elementary conjugation, the twist
word and the congruence R* G R) in every module that binds them, and each
command's counts must equal what it needs: one validation per datum it
loads or builds, one computation of what it reports, one rendering of each
file it writes. Every file goes through one writer, `cli._write_text`: each
command writes its --output once, and `catalog milnor` with --classes-output
writes twice. On the double cover of xab(3, 5, 3), whose intersection
matrix [[B, B], [B, B]] repeats each row, `compute det` eliminates nothing
and `compute nullspace` eliminates the 8 distinct rows of 16.

Elimination, and the check of a result found at the fast precision, run on
integers: inside `det` and `nullspace` the ring's division
`LaurentPoly.exact_div` is called only by `canonical_primitive`, once per
entry of each kernel vector.
"""

from __future__ import annotations

import io
import sys
from collections import Counter
from contextlib import redirect_stdout

import pytest

# The command modules are imported first, so that every name they bind is patched.
from qlefschetz import catalog, matrix, moves, obstructions  # noqa: F401
from qlefschetz.catalog import xab
from qlefschetz.cli import main
from qlefschetz.laurent import LaurentPoly
from qlefschetz.matrix import KClass, LaurentMatrix, _precisions
from qlefschetz.serialize import dumps_canonical, fibration_to_obj

from test_cli_outputs import CASES, write_inputs

FUNCTIONS = (
    ("lefschetz", "_regenerated"),
    ("matrix", "_bareiss"),
    ("serialize", "dumps_canonical"),
    ("moves", "_conjugate"),
    ("moves", "apply_twist_word"),
    ("matrix", "pairing_matrix"),
    ("cli", "_write_text"),
)
METHODS = ("unitriangular_inverse", "nullspace")

# One datum validated (loaded or built) and one file rendered.
ONCE = {"_regenerated": 1, "dumps_canonical": 1}
MOVE = {"_regenerated": 2, "_conjugate": 1, "dumps_canonical": 2}
EXPECTED = {
    "verify": ONCE,
    "compute-det": {**ONCE, "_bareiss": 1},
    "compute-nullspace": {**ONCE, "_bareiss": 1, "nullspace": 1},
    "compute-monodromy": {**ONCE, "unitriangular_inverse": 1},
    "compute-givental": {**ONCE, "_regenerated": 2},
    "compute-classical": {**ONCE, "_regenerated": 2, "unitriangular_inverse": 1},
    "compute-double-cover": {"_regenerated": 2, "dumps_canonical": 2},
    "obstruct": {**ONCE, "_bareiss": 1, "nullspace": 1},
    "move-hurwitz": MOVE,
    "move-hurwitz-inverse": MOVE,
    "move-rescale": MOVE,
    "move-shift": MOVE,
    "twist": {**ONCE, "apply_twist_word": 1},
    "catalog-milnor": {"_regenerated": 1, "dumps_canonical": 2},
    "catalog-xab": {**ONCE, "_regenerated": 2, "pairing_matrix": 1},
    "catalog-mirror-p2": {**ONCE, "_regenerated": 2, "apply_twist_word": 3, "pairing_matrix": 1},
    "catalog-induce": {**ONCE, "_regenerated": 2, "apply_twist_word": 4, "pairing_matrix": 1},
}
# Each case runs with --output, which is written once.
WRITES = {"_write_text": 1}
# A square matrix with a repeated row has determinant 0 without elimination.
BY_CASE = {"xab-3-5-3-cover_compute-det": ONCE}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("count_inputs"))


@pytest.fixture
def counts(monkeypatch) -> Counter:
    """Counting wrappers on every binding of the counted functions and methods."""
    seen: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for name, m in sys.modules.items() if name.startswith("qlefschetz.")]
    for home, name in FUNCTIONS:
        fn = getattr(sys.modules["qlefschetz." + home], name)
        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    for name in METHODS:
        monkeypatch.setattr(LaurentMatrix, name, counting(name, getattr(LaurentMatrix, name)))
    return seen


def command(case: str) -> str:
    """The subcommand of a case: "xab-3-5-3_compute-det" runs "compute-det"."""
    return case.partition("_")[2] or case


def test_every_subcommand_is_pinned():
    assert {command(case) for case in CASES} == EXPECTED.keys()


@pytest.mark.parametrize("case", sorted(CASES))
def test_subcommand_computes_each_value_once(case, paths, counts, tmp_path):
    datum, argv = CASES[case]
    names = dict(paths, file=paths[datum] if datum else "")
    argv = [a.format(**names) for a in argv] + ["--output", str(tmp_path / "out.json")]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert dict(counts) == {**BY_CASE.get(case, EXPECTED[command(case)]), **WRITES}


def test_catalog_milnor_writes_each_file_once(counts, tmp_path):
    argv = ["catalog", "milnor", "--r", "4", "--n", "4", "--output", str(tmp_path / "fibre.json")]
    with redirect_stdout(io.StringIO()):
        assert main(argv + ["--classes-output", str(tmp_path / "classes.json")]) == 0
    assert counts["_write_text"] == 2


def test_cover_eliminates_its_distinct_rows_only(paths, monkeypatch):
    rows: list[int] = []
    bareiss = matrix._bareiss

    def recording(work):
        rows.append(len(work))
        return bareiss(work)

    monkeypatch.setattr(matrix, "_bareiss", recording)
    with redirect_stdout(io.StringIO()):
        for what in ("det", "nullspace"):
            assert main(["compute", what, paths["xab-3-5-3-cover"]]) == 0
    assert rows == [8]


@pytest.mark.parametrize("params, fast", [((3, 5, 3), None), ((5, 9, 3), 32)])
def test_elimination_calls_the_ring_kernel_only_to_normalize(params, fast, monkeypatch, tmp_path):
    """
    xab(3, 5, 3), m = 8, is eliminated at its proven precision at once;
    xab(5, 9, 3), m = 14, at the fast 32 bits, whose result the check then
    proves. Each has the one kernel vector (1, ..., 1).
    """
    alg = xab(*params)
    m = alg.intersection.rows
    assert _precisions(alg.intersection.to_rows())[0] == fast
    path = tmp_path / "datum.json"
    path.write_text(dumps_canonical(fibration_to_obj(alg)), encoding="utf-8")
    calls: Counter = Counter()
    inside: list[str] = []
    kernel = LaurentPoly.exact_div

    def counting(*args):
        if inside:
            calls[inside[-1]] += 1
        return kernel(*args)

    def scoped(name, method):
        def wrapper(*args):
            inside.append(name)
            try:
                return method(*args)
            finally:
                inside.pop()

        return wrapper

    monkeypatch.setattr(LaurentPoly, "exact_div", counting)
    for home, name in ((LaurentMatrix, "det"), (LaurentMatrix, "nullspace"),
                       (KClass, "canonical_primitive")):
        monkeypatch.setattr(home, name, scoped(name, getattr(home, name)))
    for argv in (["compute", "det"], ["compute", "nullspace"], ["obstruct"]):
        calls.clear()
        with redirect_stdout(io.StringIO()):
            assert main(argv + [str(path)]) == 0
        expected = {} if argv[-1] == "det" else {"canonical_primitive": m}
        assert dict(calls) == expected, argv
