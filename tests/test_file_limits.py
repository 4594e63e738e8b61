"""
The two file limits, |exponent| <= MAX_SPAN // 2 and at most MAX_DIGITS
digits per coefficient, are stated once, in LaurentPoly.from_pairs: the
writer refuses exactly the entries the loader would refuse, with the
loader's message for the loader's cell, and coefficients given as JSON
integers are capped like numeral strings. A Seifert file that is not
unitriangular names its first bad entry. Elimination holds its matrix to
the window budget MAX_WINDOW, naming the widest row.
"""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlefschetz import serialize
from qlefschetz.catalog import milnor_ar, mirror_p2, xab
from qlefschetz.cli import main
from qlefschetz.laurent import MAX_DIGITS, MAX_SPAN, LaurentPoly, q
from qlefschetz.lefschetz import LefschetzAlgebra
from qlefschetz.matrix import MAX_WINDOW, LaurentMatrix
from qlefschetz.moves import shift_object
from qlefschetz.serialize import (
    FileFormatError,
    dumps_canonical,
    fibration_from_obj,
    fibration_to_obj,
    matrix_to_obj,
)

from oracles import evaluate_matrix, fraction_det, moved_xab

BOUND = MAX_SPAN // 2
DIGITS_BOUND = 10**MAX_DIGITS  # the least integer of more than MAX_DIGITS digits


def writer_says(alg: LefschetzAlgebra) -> str | None:
    try:
        fibration_to_obj(alg)
    except ValueError as exc:
        return str(exc)
    return None


def loader_says(alg: LefschetzAlgebra) -> str | None:
    """The loader's first refusal of alg's B matrix, written without the writer's check."""
    obj = {"n": alg.dim, "m": alg.size, "B": matrix_to_obj(alg.intersection)}
    try:
        fibration_from_obj(json.loads(dumps_canonical(obj)))
    except FileFormatError as exc:
        return str(exc)
    return None


small = st.integers(-3, 3)
nonzero = st.integers(-5, 5).filter(bool)
sign = st.sampled_from([1, -1])
# Terms inside the limits, up to the largest exponent and longest coefficient.
longest = st.builds(lambda s, k: s * (DIGITS_BOUND - k), sign, st.integers(1, 3))
good_terms = (
    st.tuples(small, nonzero)
    | st.tuples(st.sampled_from([-BOUND, BOUND]), nonzero)
    | st.tuples(small, longest)
)
far_terms = st.tuples(st.builds(lambda s, k: s * (BOUND + k), sign, st.integers(1, 3)), nonzero)
long_terms = st.tuples(
    small, st.builds(lambda s, k: s * (DIGITS_BOUND + k), sign, st.integers(0, 3))
)
entries = st.lists(good_terms | far_terms | long_terms, max_size=3).map(
    lambda terms: sum((LaurentPoly({e: c}) for e, c in terms), LaurentPoly.zero())
)


@st.composite
def seifert_data(draw):
    m = draw(st.integers(2, 3))
    rows = [[1 if i == j else draw(entries) if i < j else 0 for j in range(m)] for i in range(m)]
    n = draw(st.sampled_from([3, 4]))
    return LefschetzAlgebra.from_seifert(n, LaurentMatrix.from_rows(rows))


# Different cells: digits at (1, 2) come before an exponent at (1, 3).
CASE_CELLS = LefschetzAlgebra.from_seifert(
    4, LaurentMatrix.from_rows([[1, DIGITS_BOUND, q**40000], [0, 1, 0], [0, 0, 1]])
)
# One cell: the digits of the exponent-0 term come before exponent 40000.
CASE_TERMS = LefschetzAlgebra.from_seifert(
    4, LaurentMatrix.from_rows([[1, DIGITS_BOUND + q**40000], [0, 1]])
)


@settings(deadline=None, max_examples=200)
@given(seifert_data())
@example(CASE_CELLS)
@example(CASE_TERMS)
def test_the_writer_refuses_what_the_loader_refuses(alg):
    assert writer_says(alg) == loader_says(alg)


def test_the_writer_names_the_loaders_cell_and_term():
    digits = f"coefficient at exponent 0 has more than {MAX_DIGITS} digits"
    assert writer_says(CASE_CELLS) == f"fibration.B.entries[0][1]: {digits}"
    assert writer_says(CASE_TERMS) == f"fibration.B.entries[0][1]: {digits}"


def write_integer_corner(tmp_path, x: int):
    """A 2 x 2 Seifert-matrix file (n = 4) whose entry (1, 2) is the JSON integer x."""
    entries = [[[[0, 1]], [[0, x]]], [[], [[0, 1]]]]
    path = tmp_path / "int.json"
    path.write_text(
        dumps_canonical({"n": 4, "m": 2, "A": {"rows": 2, "cols": 2, "entries": entries}}),
        encoding="utf-8",
    )
    return path


def test_integer_coefficients_are_capped_on_read(tmp_path, capsys):
    for x in (10**MAX_DIGITS, -(10**MAX_DIGITS)):
        code = main(["verify", str(write_integer_corner(tmp_path, x))])
        err = capsys.readouterr().err
        assert code == 2
        field = "fibration.A.entries[0][1]"
        assert f"{field}: coefficient at exponent 0 has more than {MAX_DIGITS} digits" in err


def test_an_integer_coefficient_within_the_cap_is_written_back(tmp_path, capsys):
    x = 10**MAX_DIGITS - 1
    path = write_integer_corner(tmp_path, x)
    assert main(["verify", str(path)]) == 0
    moved = tmp_path / "moved.json"
    assert main(["move", str(path), "shift", "--k", "1", "--output", str(moved)]) == 0
    capsys.readouterr()
    alg = LefschetzAlgebra.from_seifert(4, LaurentMatrix.from_rows([[1, x], [0, 1]]))
    loaded, _ = fibration_from_obj(json.loads(moved.read_text(encoding="utf-8")))
    assert loaded == shift_object(alg, 0)


def catalog_data():
    for a, b in ((1, 2), (2, 3), (2, 5), (3, 4), (7, 18)):
        for n in (3, 4):
            yield xab(a, b, n)
            yield xab(a, b, n).double_cover()[0]
    for n in (3, 4):
        yield mirror_p2(n)
        yield milnor_ar(4, n)[0]
    yield moved_xab()


def test_the_writer_reads_nothing_back_from_data_within_the_limits(monkeypatch):
    calls = []
    from_pairs = LaurentPoly.from_pairs

    def counted(pairs):
        calls.append(1)
        return from_pairs(pairs)

    monkeypatch.setattr(LaurentPoly, "from_pairs", staticmethod(counted))
    for alg in catalog_data():
        fibration_to_obj(alg)
    assert calls == []
    # The counter sees the writer's reads when there are any.
    with pytest.raises(ValueError):
        fibration_to_obj(CASE_TERMS)
    assert calls


def write_seifert(tmp_path, rows):
    m = len(rows)
    obj = {"n": 4, "m": m, "A": matrix_to_obj(LaurentMatrix.from_rows(rows))}
    path = tmp_path / "a.json"
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "rows, named",
    [
        ([[1, 0, 0], [2, 1, 0], [0, 0, 1]], "entry (2, 1) is 2"),
        ([[1, 5, 0], [0, q, 0], [0, 0, 1]], "entry (2, 2) is q"),
        ([[1, 0, 0], [0, 1, 0], [0, 7, -1]], "entry (3, 2) is 7"),
        ([[3, 0], [2, 1]], "entry (1, 1) is 3"),
    ],
)
def test_a_seifert_file_names_its_first_bad_entry(tmp_path, capsys, rows, named):
    code = main(["verify", str(write_seifert(tmp_path, rows))])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: Seifert matrix must be upper-triangular with unit diagonal: {named}\n" == err


def test_a_non_square_seifert_matrix_is_refused():
    with pytest.raises(ValueError, match="unit diagonal: it is 2x3"):
        LefschetzAlgebra.from_seifert(4, LaurentMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))


def test_the_writer_refuses_before_it_renders(monkeypatch):
    # Rendering a 300001-digit coefficient to decimal takes seconds; the
    # refusal is decided on the polynomials, so no cell is rendered.
    big = 10**300000
    rows = [[1, big + 1, big], [0, 1, big], [0, 0, 1]]
    alg = LefschetzAlgebra.from_seifert(4, LaurentMatrix.from_rows(rows))
    rendered = []
    monkeypatch.setattr(serialize, "poly_to_obj", lambda p: rendered.append(p) or p.to_pairs())
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        fibration_to_obj(alg)
    assert time.perf_counter() - start < 1
    message = f"coefficient at exponent 0 has more than {MAX_DIGITS} digits"
    assert str(info.value) == f"fibration.B.entries[0][1]: {message}"
    assert rendered == []


def hostile(m: int, k: int) -> LefschetzAlgebra:
    """Unitriangular Seifert data whose upper entries alternate q^k and q^-k + q^k."""
    a, b = LaurentPoly({k: 1}), LaurentPoly({-k: 1, k: 1})
    rows = [
        [1 if i == j else (a if (i + j) % 2 else b) if j > i else 0 for j in range(m)]
        for i in range(m)
    ]
    return LefschetzAlgebra.from_seifert(3, LaurentMatrix.from_rows(rows))


def widths(lines) -> list[int]:
    """Highest exponent minus lowest over each line's nonzero entries."""
    out = []
    for line in lines:
        exps = [e for p in line for e, _ in p.items()]
        out.append(max(exps) - min(exps) if exps else 0)
    return out


def run(argv: list[str], capsys) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("k, window", [(511, 8180), (512, 8196)])
def test_the_window_budget_holds_for_hostile_files(tmp_path, capsys, k, window):
    """
    At m = 8, q^511 entries give W = 8180, under MAX_WINDOW = 8192, and
    eliminate in under a second; q^512 entries give W = 8196, which det,
    nullspace and obstruct refuse with exit 2, naming the widest row, while
    verify and the moves, which do not eliminate, still run.
    """
    alg = hostile(8, k)
    rows = alg.intersection.to_rows()
    assert min(sum(widths(rows)), sum(widths(zip(*rows)))) == window
    path = tmp_path / "hostile.json"
    path.write_text(dumps_canonical(fibration_to_obj(alg)), encoding="utf-8")
    if window <= MAX_WINDOW:
        start = time.perf_counter()
        assert run(["compute", "det", str(path)], capsys) == (0, "")
        assert time.perf_counter() - start < 10
        det = alg.intersection.det()
        for x in (2, -3):
            assert det.evaluate(x) == fraction_det(evaluate_matrix(alg.intersection, x))
        return
    row_widths = widths(rows)
    widest = row_widths.index(max(row_widths))
    message = (
        f"error: exponent window {window} exceeds the elimination budget {MAX_WINDOW}: "
        f"row {widest + 1} alone spans {row_widths[widest]}\n"
    )
    for argv in (["compute", "det"], ["compute", "nullspace"], ["obstruct"]):
        assert run(argv + [str(path)], capsys) == (2, message)
    for call in (alg.intersection.det, alg.intersection.rank, alg.intersection.nullspace):
        with pytest.raises(ValueError, match="exceeds the elimination budget"):
            call()
    assert run(["verify", str(path)], capsys)[0] == 0
    assert run(["move", str(path), "hurwitz", "--k", "2"], capsys)[0] == 0

