"""
Fraction-free elimination on banded matrices with long runs of zero heads.

A row whose head is zero at a pivot step is skipped and keeps its own
denominator; it is next updated against a later pivot, or refreshed when it
becomes the pivot row. Banded matrices of size 6 to 10, with rows permuted
and some rows replaced by unit multiples of others, make both common. Each
result is checked three ways: the echelon rows against plain Bareiss through
the schoolbook product and long division, det and rank against rational
elimination at sample points (all in tests/oracles.py), and each kernel
vector by B @ v == 0.

det, rank and nullspace eliminate only the distinct rows, so matrices with
rows copied exactly, in place of other rows or added to them, are checked
against the same oracles; each kernel vector must also be canonical
primitive and vanish at every free column but its own, which fixes it.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import qlefschetz.matrix as matrix_module
from qlefschetz.laurent import LaurentPoly, gcd_many
from qlefschetz.matrix import LaurentMatrix, _bareiss

from oracles import (
    evaluate_matrix,
    fraction_det,
    fraction_rank,
    long_division,
    schoolbook_product,
)

bounded = settings(deadline=None, max_examples=30)

POINTS = (Fraction(2), Fraction(-3), Fraction(7, 5))

entries = st.one_of(
    st.just(LaurentPoly.zero()),
    st.builds(
        lambda val, coeffs: LaurentPoly((val + i, c) for i, c in enumerate(coeffs)),
        st.integers(-2, 1),
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    ),
)


@st.composite
def banded_matrices(draw):
    n = draw(st.integers(6, 10))
    below, above = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    rows = [
        [draw(entries) if -below <= j - i <= above else LaurentPoly.zero() for j in range(n)]
        for i in range(n)
    ]
    for _ in range(draw(st.integers(0, 2))):
        target, source = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        unit = LaurentPoly.monomial(draw(st.sampled_from([1, -1])), draw(st.integers(-1, 1)))
        rows[target] = [unit * x for x in rows[source]]
    order = draw(st.permutations(range(n)))
    return LaurentMatrix.from_rows([rows[i] for i in order])


@st.composite
def repeated_row_matrices(draw):
    """A banded matrix with 1 to 3 rows copied exactly: over other rows, or added to them."""
    rows = draw(banded_matrices()).to_rows()
    added = draw(st.booleans())
    for _ in range(draw(st.integers(1, 3))):
        source = draw(st.integers(0, len(rows) - 1))
        if added:
            rows.insert(draw(st.integers(0, len(rows))), list(rows[source]))
        else:
            target = draw(st.integers(0, len(rows) - 1).filter(lambda t: t != source))
            rows[target] = list(rows[source])
    return LaurentMatrix.from_rows(rows)


def plain_bareiss(rows):
    """Textbook Bareiss with the same pivot rule: every entry updated every step."""
    work = [list(r) for r in rows]
    nrows, ncols = len(work), len(work[0])
    pivot_cols, sign, prev, r = [], 1, LaurentPoly.one(), 0
    for c in range(ncols):
        if r >= nrows:
            break
        candidates = [i for i in range(r, nrows) if not work[i][c].is_zero()]
        if not candidates:
            continue
        i = min(candidates, key=lambda i: (work[i][c].span(), i))
        if i != r:
            work[r], work[i] = work[i], work[r]
            sign = -sign
        for i in range(r + 1, nrows):
            head = work[i][c]
            for j in range(c, ncols):
                cross = schoolbook_product(work[i][j], work[r][c]) - schoolbook_product(
                    head, work[r][j]
                )
                work[i][j] = long_division(cross, prev)
        prev = work[r][c]
        pivot_cols.append(c)
        r += 1
    return work, pivot_cols, sign


def sample_rank(b: LaurentMatrix) -> int:
    # A rank at a point never exceeds the rank over Q(q); at three points it
    # is reached unless every maximal minor vanishes at all of them.
    return max(fraction_rank(evaluate_matrix(b, x)) for x in POINTS)


def free_columns(b: LaurentMatrix) -> list[int]:
    """The columns that add nothing to the rank of the columns before them."""
    rows = b.to_rows()
    ranks = [sample_rank(LaurentMatrix.from_rows([r[:j] for r in rows])) for j in range(b.cols + 1)]
    return [j for j in range(b.cols) if ranks[j + 1] == ranks[j]]


@bounded
@given(banded_matrices())
def test_echelon_rows_equal_plain_bareiss(b):
    work, pivot_cols, sign = _bareiss(b.to_rows())
    expected, expected_cols, expected_sign = plain_bareiss(b.to_rows())
    assert (pivot_cols, sign) == (expected_cols, expected_sign)
    assert work[: len(pivot_cols)] == expected[: len(pivot_cols)]
    assert all(x.is_zero() for row in work[len(pivot_cols) :] for x in row)


@bounded
@given(banded_matrices())
def test_det_rank_and_nullspace_at_sample_points(b):
    det = b.det()
    for x in POINTS:
        assert det.evaluate(x) == fraction_det(evaluate_matrix(b, x))
    rank = b.rank()
    assert rank == sample_rank(b)
    basis = b.nullspace()
    assert len(basis) == b.cols - rank
    for v in basis:
        assert (b @ v).is_zero()
        assert gcd_many(c for c in v.coords if not c.is_zero()) == 1
    if basis:
        assert sample_rank(LaurentMatrix.from_rows([list(v.coords) for v in basis])) == len(basis)


@bounded
@given(repeated_row_matrices())
def test_repeated_rows_at_sample_points(b):
    if b.is_square():
        det = b.det()
        for x in POINTS:
            assert det.evaluate(x) == fraction_det(evaluate_matrix(b, x))
    assert b.rank() == sample_rank(b)
    basis, free = b.nullspace(), free_columns(b)
    assert len(basis) == len(free)
    for v, own in zip(basis, free):
        assert (b @ v).is_zero()
        entries = [c for c in v.coords if not c.is_zero()]
        assert gcd_many(entries) == 1
        assert entries[0].valuation() == 0 and entries[0][0] > 0
        assert [not v[j].is_zero() for j in free] == [j == own for j in free]


def test_example_takes_both_stale_row_paths(monkeypatch):
    """
    Rows 1 and 3 have zero heads at the first pivot, 1 + q, so both keep
    denominator 1. Row 1 then wins column 1 and is refreshed, x (1 + q) / 1;
    row 3 is updated against its pivot 2 + 2q still dividing by 1.
    """
    calls = []
    kernel = matrix_module._cross_div

    def recording(pairs, d):
        calls.append((pairs, d))
        return kernel(pairs, d)

    monkeypatch.setattr(matrix_module, "_cross_div", recording)
    one, q = LaurentPoly.one(), LaurentPoly({1: 1})
    rows = [[1 + q, 1, 1, 1], [0, 2, 1, q], [2 + q, q, 1, 0], [0, 1, q, 1]]
    b = LaurentMatrix.from_rows(rows)
    work, pivot_cols, sign = _bareiss(b.to_rows())
    assert (work, pivot_cols, sign) == plain_bareiss(b.to_rows())
    # The refresh x (1 + q) / 1 is one pair; an update (x p - h b) / d is two.
    assert any(len(pairs) == 1 and pairs[0][1] == 1 + q and d == one for pairs, d in calls)
    assert any(
        len(pairs) == 2 and pairs[0][1] == 2 + 2 * q and pairs[1][0] and d == one
        for pairs, d in calls
    )
    for x in POINTS:
        assert b.det().evaluate(x) == fraction_det(evaluate_matrix(b, x))
