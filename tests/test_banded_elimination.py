"""
Fraction-free elimination on banded matrices with long runs of zero heads.

Elimination runs on integers: each row is shifted to valuation 0 and
evaluated at q = 2^bits. A row whose head is zero at a pivot step is
skipped and keeps its own denominator; it is next updated against a later
pivot, or refreshed when it becomes the pivot row. Banded matrices of size
6 to 10, with rows permuted and some rows replaced by unit multiples of
others, make both common. Each result is checked three ways: the packed
rows against exact evaluation and the echelon rows against textbook integer
Bareiss at the same bits, det and rank against rational elimination at
sample points (all in tests/oracles.py), and each kernel vector by
B @ v == 0.

det, rank and nullspace eliminate only the distinct rows, so matrices with
rows copied exactly, in place of other rows or added to them, are checked
against the same oracles; each kernel vector must also be canonical
primitive and vanish at every free column but its own, which fixes it.

Elimination first runs at the fast precision, 32 bits, when that is below
the proven one and holds every input coefficient, and its result stands
only when checked exactly. The check packs the rows and vectors at a
precision of its own, set by a bound on the product's coefficients, and
tests each integer dot product for zero; tests below hold it to the bound
and to the polynomial product. The last tests build the cases that must
fall back to the proven precision, or never leave it, and one wide kernel
that the fast precision must keep fast.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import qlefschetz.matrix as matrix_module
from qlefschetz.catalog import xab
from qlefschetz.laurent import LaurentPoly, gcd_many, q
from qlefschetz.matrix import (
    _FAST_BITS,
    KClass,
    LaurentMatrix,
    _annihilates,
    _bareiss,
    _distinct_rows,
    _pack,
    _packed,
    _unpack,
)

from oracles import (
    evaluate_matrix,
    fraction_det,
    fraction_rank,
    packed_at,
    plain_integer_bareiss,
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
    rows = b.to_rows()  # repeated rows too, each with its own shift
    shifts = [_distinct_rows(LaurentMatrix.from_rows([row]))[1][0] for row in rows]
    for bits in sorted({8, _FAST_BITS, _distinct_rows(b)[3]}):
        packed = _packed(rows, bits, shifts)
        assert packed == packed_at(rows, bits)
        work, pivot_cols, sign = _bareiss([list(r) for r in packed])
        expected, expected_cols, expected_sign = plain_integer_bareiss(packed)
        assert (pivot_cols, sign) == (expected_cols, expected_sign)
        assert work[: len(pivot_cols)] == expected[: len(pivot_cols)]
        assert not any(x for row in work[len(pivot_cols) :] for x in row)


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
    denominator 1. At column 1 row 3, 1 * (1 + q), has the fewest bits of the
    candidates (2 + 2q and q^2 - 2 are the others), so it wins and is
    refreshed, x (1 + q) / 1; row 1 is updated against that pivot still
    dividing by 1.
    """
    refreshed = []
    current = matrix_module._current

    def recording(x, prev, den):
        if den != prev:
            refreshed.append((x, prev, den))
        return current(x, prev, den)

    monkeypatch.setattr(matrix_module, "_current", recording)
    rows = [[1 + q, 1, 1, 1], [0, 2, 1, q], [2 + q, q, 1, 0], [0, 1, q, 1]]
    b = LaurentMatrix.from_rows(rows)
    rows, shifts, _, bits, _ = _distinct_rows(b)
    packed = _packed(rows, bits, shifts)
    assert packed[1][0] == packed[3][0] == 0
    work, pivot_cols, sign = _bareiss([list(r) for r in packed])
    assert (work, pivot_cols, sign) == plain_integer_bareiss(packed)
    # Row 3 wins column 1 and is refreshed from denominator 1 to the first
    # pivot, its entry q too (the pivot rule only looks at heads); row 1,
    # whose head there is 2, is updated while still stale.
    one_plus_q = _pack((1, 1), bits)
    assert work[1][1] == one_plus_q
    assert (packed[3][2], one_plus_q, 1) in refreshed
    for x in POINTS:
        assert b.det().evaluate(x) == fraction_det(evaluate_matrix(b, x))


@bounded
@given(
    st.integers(-3, 3),
    st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=40),
    st.sampled_from([8, 32, 40]),
)
def test_pack_and_unpack_are_inverse(val, coeffs, bits):
    """Balanced digits read back exactly whenever every coefficient lies in their range."""
    half = 1 << (bits - 1)
    coeffs = [c % (2 * half) - half for c in coeffs]
    p = LaurentPoly((val + i, c) for i, c in enumerate(coeffs))
    packed = _pack(p._coeffs, bits) if p._coeffs else 0
    assert packed == sum(c << (bits * k) for k, c in enumerate(p._coeffs))
    assert _unpack(packed, bits, p._val if p._coeffs else 0) == p


def eliminations(monkeypatch) -> list[int]:
    """Record the number of rows of every integer elimination."""
    calls: list[int] = []
    bareiss = matrix_module._bareiss

    def recording(work):
        calls.append(len(work))
        return bareiss(work)

    monkeypatch.setattr(matrix_module, "_bareiss", recording)
    return calls


def assert_matches_oracles(b: LaurentMatrix) -> None:
    if b.is_square():
        det = b.det()
        for x in POINTS:
            assert det.evaluate(x) == fraction_det(evaluate_matrix(b, x))
    rank = b.rank()
    assert rank == sample_rank(b)
    basis = b.nullspace()
    assert len(basis) == b.cols - rank
    for v in basis:
        assert (b @ v).is_zero()


def test_a_false_zero_pivot_falls_back(monkeypatch):
    """
    The minor q - 2^32 of small entries vanishes at q = 2^32: the fast pass
    finds rank 1 and a kernel vector that B does not annihilate, so each of
    det, rank and nullspace eliminates again at the proven precision.
    """
    b = LaurentMatrix.from_rows([[q, 2**16, q], [2**16, 1, 2**16]])
    square = LaurentMatrix.from_rows([row[:2] for row in b.to_rows()])
    assert _distinct_rows(b)[2] == _FAST_BITS
    calls = eliminations(monkeypatch)
    assert square.det() == q - 2**32
    assert square.rank() == 2 and square.nullspace() == []
    assert b.rank() == 2
    assert b.nullspace() == [KClass([1, 0, -1])]
    assert calls == [2, 2] * 5
    assert_matches_oracles(square)
    assert_matches_oracles(b)


def check_bits(monkeypatch, rows, kernel) -> tuple[bool, set[int]]:
    """The check's verdict on rows and kernel, and the precisions it packed them at."""
    bits: set[int] = set()
    packed = matrix_module._packed

    def recording(lines, b, shifts):
        bits.add(b)
        return packed(lines, b, shifts)

    with monkeypatch.context() as patch:
        patch.setattr(matrix_module, "_packed", recording)
        rows, shifts, _, _, norm = _distinct_rows(LaurentMatrix.from_rows(rows))
        return _annihilates(rows, shifts, kernel, norm), bits


def polys(lines) -> list[list[LaurentPoly]]:
    return [[LaurentPoly.coerce(x) for x in line] for line in lines]


@pytest.mark.parametrize(
    "row, vector",
    [
        ([q, -256], [1, 1]),  # q - 2^8
        ([q, 1], [1, -(2**16)]),  # q - 2^16
        ([q**2, -(2**16) * q, 1], [1, 1, 0]),  # q^2 - 2^16 q
    ],
)
def test_the_check_refuses_a_product_that_vanishes_at_a_small_power(row, vector):
    """Each product is nonzero, but vanishes at q = 2^8 or at q = 2^16."""
    b, v = LaurentMatrix.from_rows([row]), KClass(vector)
    assert not (b @ v).is_zero()
    rows, shifts, _, _, norm = _distinct_rows(b)
    assert not _annihilates(rows, shifts, [list(v.coords)], norm)


@pytest.mark.parametrize("b", [8, 16, 40])
@pytest.mark.parametrize("below", [True, False])
def test_the_check_precision_holds_the_bound(monkeypatch, b, below):
    """
    The bound C = N V is the row norm N times the largest vector coefficient
    V. With C = 2^(b - 1) - 1 the check packs at b bits, with C = 2^(b - 1)
    at b + 8; at b bits the row (C) or the vector (C, 0) would not even
    pack. Rows (p, p, r), p = C // 2 and r = C % 2, have norm C: the vector
    (1, -1, 0) lies in their kernel and (1, 1, 0) does not.
    """
    c = 2 ** (b - 1) - (1 if below else 0)
    expected = {b if below else b + 8}
    p, r = c // 2, c % 2
    cases = [
        ([[p, p, r]], [[1, -1, 0]], True),
        ([[p, p, r]], [[1, 1, 0]], False),
        ([[c]], [[1]], False),
        ([[1, 0]], [[0, c]], True),
        ([[1, 0]], [[c, 0]], False),
    ]
    for rows, kernel, verdict in cases:
        assert check_bits(monkeypatch, polys(rows), polys(kernel)) == (verdict, expected)


def test_an_empty_kernel_is_annihilated_without_packing(monkeypatch):
    """A full-column-rank result at the fast precision has no vector to check."""
    rows = polys([[1 + q, 2], [q, 1 - q], [3, 0]])
    assert check_bits(monkeypatch, rows, []) == (True, set())


small_coefficients = st.one_of(
    st.integers(-3, 3), st.sampled_from([-(2**16), -256, -128, 127, 128, 255, 256, 2**16 - 1])
)
small_entries = st.builds(
    lambda val, coeffs: LaurentPoly((val + i, c) for i, c in enumerate(coeffs)),
    st.integers(-2, 2),
    st.lists(small_coefficients, max_size=3),
)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_the_check_agrees_with_the_polynomial_product(data):
    """
    Random rows and vectors of a few short entries, some coefficients near
    a power of 2^8; a row is often built to annihilate the first vector:
    s * v_j at column i and -s * v_i at column j.
    """
    ncols = data.draw(st.integers(1, 4))
    vectors = data.draw(
        st.lists(st.lists(small_entries, min_size=ncols, max_size=ncols), min_size=1, max_size=2)
    )
    rows = []
    for _ in range(data.draw(st.integers(1, 3))):
        row = data.draw(st.lists(small_entries, min_size=ncols, max_size=ncols))
        if ncols > 1 and data.draw(st.booleans()):
            i, j = data.draw(st.permutations(range(ncols)))[:2]
            s, v = data.draw(small_entries), vectors[0]
            row = [LaurentPoly.zero()] * ncols
            row[i], row[j] = s * v[j], -(s * v[i])
        rows.append(row)
    b = LaurentMatrix.from_rows(rows)
    expected = all((b @ KClass(v)).is_zero() for v in vectors)
    # The check takes vectors as _cramer_vectors gives them, with no negative exponent.
    rows, shifts, _, _, norm = _distinct_rows(b)
    assert _annihilates(rows, shifts, [[q**2 * x for x in v] for v in vectors], norm) == expected


def test_an_entry_q_minus_2_to_the_32(monkeypatch):
    """The entry's coefficient -2^32 exceeds 32 bits: only the proven precision runs."""
    b = LaurentMatrix.from_rows([[q - 2**32, 1, 0], [1, 0, q], [q - 2**32, 1, 0]])
    assert _distinct_rows(b)[2] is None
    calls = eliminations(monkeypatch)
    assert b.det() == 0 and calls == []  # a repeated row needs no elimination
    assert b.rank() == 2
    (v,) = b.nullspace()
    assert v == KClass([1, 2**32 - q, -(q**-1)])
    assert calls == [2, 2]
    assert_matches_oracles(b)


@pytest.mark.parametrize(
    "coeff, fast",
    [(2**31 - 1, _FAST_BITS), (2**31, None), (-(2**31), _FAST_BITS), (-(2**31) - 1, None)],
)
def test_an_input_coefficient_beyond_31_bits_stays_proven(monkeypatch, coeff, fast):
    rows = [[1 + q, coeff * q, 0], [1, 2, q], [q, 0, 1 - q]]
    b = LaurentMatrix.from_rows(rows)
    assert _distinct_rows(b)[2] == fast
    calls = eliminations(monkeypatch)
    assert_matches_oracles(b)
    # det: the fast pass finds the matrix nonsingular, which only the proven
    # pass can value; rank and nullspace stand at the fast pass.
    assert calls == ([3, 3, 3, 3] if fast else [3, 3, 3])


def test_a_nonsingular_det_beyond_31_bits_is_proven(monkeypatch):
    """Entries of one digit, a det with coefficients over 2^31: the fast pass cannot value it."""
    rng = random.Random(5)
    rows = [
        [LaurentPoly({0: rng.randint(-9, 9), 1: rng.randint(-9, 9), 2: rng.randint(1, 9)})
         for _ in range(12)]
        for _ in range(12)
    ]
    b = LaurentMatrix.from_rows(rows)
    _, _, fast, proven, _ = _distinct_rows(b)
    assert fast == _FAST_BITS < proven
    calls = eliminations(monkeypatch)
    det = b.det()
    assert calls == [12, 12]
    assert max(abs(c) for _, c in det.items()) >= 2**31
    for x in POINTS:
        assert det.evaluate(x) == fraction_det(evaluate_matrix(b, x))
    # Its kernel vectors, minors too, overflow the fast digits as well: a
    # 12x13 matrix with the same rows fails the exact check and falls back.
    wide = LaurentMatrix.from_rows([row + [row[0] * row[1]] for row in rows])
    calls.clear()
    (v,) = wide.nullspace()
    assert calls == [12, 12]
    assert (wide @ v).is_zero()
    assert max(abs(c) for p in v.coords for _, c in p.items()) >= 2**31


def test_the_fast_precision_keeps_a_wide_kernel_fast():
    """
    The m = 80 band xab(29, 51, 4) has the kernel (1, ..., 1). At the fast
    32 bits its nullspace takes about 130 ms; at the proven precision, 320
    bits, it takes about 3.5 s.
    """
    b = xab(29, 51, 4).intersection
    assert _distinct_rows(b)[2:4] == (_FAST_BITS, 320)
    start = time.perf_counter()
    assert b.nullspace() == [KClass([1] * 80)]
    assert time.perf_counter() - start < 1.5
