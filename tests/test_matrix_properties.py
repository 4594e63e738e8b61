"""
Property tests of the matrix layer against sympy as an independent route.

Matrices are square, up to 4 x 4, with entries of span at most 3 that
include negative exponents and zero; some rows are unit multiples of
others, so rank-deficient matrices and wide kernels are common. Products
are also checked on sparse factors of any shape up to 5 x 5, empty ones
included, against the column-by-column oracle.
"""

from __future__ import annotations

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from qlefschetz.laurent import LaurentPoly, gcd_many
from qlefschetz.matrix import KClass, LaurentMatrix, gram_pairing

from oracles import column_dot_matmul

Q = sympy.Symbol("q")

# Few examples, no deadline: generating 4 x 4 matrices dominates the run time.
bounded = settings(deadline=None, max_examples=40)

entries = st.one_of(
    st.just(LaurentPoly.zero()),
    st.builds(
        lambda val, coeffs: LaurentPoly((val + i, c) for i, c in enumerate(coeffs)),
        st.integers(-2, 1),
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    ),
)


@st.composite
def square_matrices(draw, n):
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    # Replace some rows by +-q^k times another row to force rank deficiency.
    for _ in range(draw(st.integers(0, n))):
        target, source = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        unit = LaurentPoly.monomial(draw(st.sampled_from([1, -1])), draw(st.integers(-1, 1)))
        rows[target] = [unit * x for x in rows[source]]
    return LaurentMatrix(n, n, tuple(x for row in rows for x in row))


sizes = st.integers(0, 4)
matrices = sizes.flatmap(square_matrices)


def classes(m):
    return st.lists(entries, min_size=m, max_size=m).map(KClass)


@st.composite
def unitriangular_matrices(draw, n):
    return LaurentMatrix.from_rows(
        [[1 if i == j else draw(entries) if i < j else 0 for j in range(n)] for i in range(n)]
    )


FIELD = sympy.QQ.frac_field(Q)


def to_field(p: LaurentPoly) -> sympy.polys.fields.FracElement:
    """p as an element of the rational function field Q(q), where sympy computes."""
    shift = min(0, p.valuation()) if not p.is_zero() else 0
    ring = FIELD.field.ring
    numerator = ring.from_dict({(e - shift,): c for e, c in p.items()})
    return FIELD.field.new(numerator, ring.gens[0] ** -shift)


def domain_matrix(m: LaurentMatrix) -> DomainMatrix:
    rows = [[to_field(x) for x in m.row(i)] for i in range(m.rows)]
    return DomainMatrix(rows, (m.rows, m.cols), FIELD)


def column(v: KClass) -> DomainMatrix:
    return domain_matrix(LaurentMatrix(len(v), 1, v.coords))


@bounded
@given(matrices)
def test_det_and_rank_match_sympy(b):
    dm = domain_matrix(b)
    assert to_field(b.det()) == (dm.det() if b.rows else FIELD.one)
    assert b.rank() == (dm.rank() if b.rows else 0)


@bounded
@given(matrices)
def test_nullspace_is_a_canonical_primitive_kernel_basis(b):
    basis = b.nullspace()
    rank = domain_matrix(b).rank() if b.rows else 0
    assert len(basis) == b.cols - rank
    for v in basis:
        assert (b @ v).is_zero()
        assert gcd_many(c for c in v.coords if not c.is_zero()) == 1
        first = next(c for c in v.coords if not c.is_zero())
        assert first.valuation() == 0 and first[0] > 0
        assert v.canonical_primitive() == v
    if basis:
        stacked = LaurentMatrix.from_rows([list(v.coords) for v in basis])
        assert domain_matrix(stacked).rank() == len(basis)


@bounded
@given(st.integers(1, 4).flatmap(classes))
def test_canonical_primitive_is_idempotent(v):
    once = v.canonical_primitive()
    assert once.canonical_primitive() == once


@bounded
@given(sizes.flatmap(lambda n: st.tuples(square_matrices(n), square_matrices(n), classes(n))))
def test_matmul_matches_sympy(args):
    a, b, v = args
    assert domain_matrix(a @ b) == domain_matrix(a) * domain_matrix(b)
    assert column(a @ v) == domain_matrix(a) * column(v)


# Mostly zero, else a monomial c q^k (often +-1) or a short polynomial.
sparse_entries = st.one_of(
    st.just(LaurentPoly.zero()),
    st.just(LaurentPoly.zero()),
    st.builds(
        LaurentPoly.monomial, st.sampled_from([1, -1]) | st.integers(-3, 3), st.integers(-2, 2)
    ),
    entries,
)


@st.composite
def sparse_factors(draw, rows, cols):
    """
    A rows x cols matrix: sparse, or the identity with a Hurwitz-like 2x2
    block or a diagonal of monomials where square; then perhaps a zero row
    and a zero column.
    """
    kind = draw(st.sampled_from(["sparse", "transition", "diagonal"]))
    if rows != cols or rows < 2 or kind == "sparse":
        grid = [[draw(sparse_entries) for _ in range(cols)] for _ in range(rows)]
    else:
        grid = [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(cols)]
                for i in range(rows)]
        if kind == "transition":
            k = draw(st.integers(0, rows - 2))
            grid[k][k], grid[k][k + 1] = draw(entries), LaurentPoly.one()
            grid[k + 1][k], grid[k + 1][k + 1] = LaurentPoly.one(), draw(entries)
        else:
            for i in range(rows):
                grid[i][i] = draw(sparse_entries.filter(bool))
    if rows and draw(st.booleans()):
        grid[draw(st.integers(0, rows - 1))] = [LaurentPoly.zero()] * cols
    if cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in grid:
            row[j] = LaurentPoly.zero()
    return LaurentMatrix(rows, cols, tuple(x for row in grid for x in row))


shapes = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))


@bounded
@given(shapes.flatmap(
    lambda s: st.tuples(sparse_factors(s[0], s[1]), sparse_factors(s[1], s[2]))
))
def test_sparse_matmul_matches_the_column_oracle_and_sympy(args):
    a, b = args
    product = a @ b
    assert product == column_dot_matmul(a, b)
    if a.rows and a.cols and b.cols:
        assert domain_matrix(product) == domain_matrix(a) * domain_matrix(b)


@bounded
@given(sizes.flatmap(unitriangular_matrices))
def test_unitriangular_inverse(s):
    identity = LaurentMatrix.identity(s.rows)
    inverse = s.unitriangular_inverse()
    assert inverse @ s == identity
    assert s @ inverse == identity


@bounded
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(square_matrices(n), classes(n), classes(n))
))
def test_gram_pairing_matches_sympy(args):
    gram, h0, h1 = args
    starred = column(KClass(c.star() for c in h0.coords)).transpose()
    expected = starred * domain_matrix(gram) * column(h1)
    assert DomainMatrix([[to_field(gram_pairing(gram, h0, h1))]], (1, 1), FIELD) == expected
