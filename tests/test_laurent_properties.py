"""
Property tests of the ring Z[q, q^-1] against sympy as an independent route.

Every operation is checked on generated polynomials with negative
exponents, the zero polynomial and constants among them, and every result
is checked to be in the canonical (valuation, coefficient tuple) form.
"""

from __future__ import annotations

import math

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qlefschetz.laurent import ExactDivisionError, LaurentPoly, laurent_gcd

from oracles import assert_canonical, rational_gcd

Q = sympy.Symbol("q")

polys = st.one_of(
    st.dictionaries(st.integers(-6, 6), st.integers(-20, 20), max_size=6).map(LaurentPoly),
    st.integers(-20, 20).map(LaurentPoly.coerce),
)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def to_sympy(p: LaurentPoly) -> sympy.Expr:
    return sympy.Add(*(c * Q**e for e, c in p.items()))


def shifted(p: LaurentPoly) -> sympy.Poly:
    """p times q^-valuation, an ordinary polynomial with nonzero constant term."""
    return sympy.Poly(sum(c * Q ** (e - p.valuation()) for e, c in p.items()), Q)


def same(p: LaurentPoly, expr: sympy.Expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


def is_unit(expr: sympy.Expr) -> bool:
    """Whether a rational function in q is +-q^k."""
    return all(
        len(terms := sympy.Poly(part, Q).terms()) == 1 and abs(terms[0][1]) == 1
        for part in sympy.cancel(expr).as_numer_denom()
    )


def test_storage_is_valuation_and_coefficient_tuple():
    assert LaurentPoly.__slots__ == ("_val", "_coeffs")
    p = LaurentPoly({-2: 3, 1: -1})
    assert (p._val, p._coeffs) == (-2, (3, 0, 0, -1))
    assert (LaurentPoly.zero()._val, LaurentPoly.zero()._coeffs) == (0, ())


@given(polys, polys)
def test_add_sub_mul_match_sympy(a, b):
    for result, expr in (
        (a + b, to_sympy(a) + to_sympy(b)),
        (a - b, to_sympy(a) - to_sympy(b)),
        (a * b, to_sympy(a) * to_sympy(b)),
        (-a, -to_sympy(a)),
    ):
        assert_canonical(result)
        assert same(result, expr)


@given(polys)
def test_star_matches_sympy(a):
    assert_canonical(a.star())
    assert same(a.star(), to_sympy(a).subs(Q, 1 / Q))


@given(polys, nonzero_polys)
def test_exact_div_of_product_by_factor(a, b):
    quotient = (a * b).exact_div(b)
    assert_canonical(quotient)
    assert quotient == a
    assert same(quotient, sympy.cancel(to_sympy(a * b) / to_sympy(b)))


@given(polys, nonzero_polys)
def test_exact_div_raises_exactly_when_sympy_leaves_a_non_unit_denominator(a, b):
    exact = is_unit(sympy.cancel(to_sympy(a) / to_sympy(b)).as_numer_denom()[1])
    try:
        quotient = a.exact_div(b)
    except ExactDivisionError:
        assert not exact
    else:
        assert exact and quotient * b == a


@settings(deadline=None)
@given(polys, polys)
def test_gcd_matches_sympy_up_to_a_unit(a, b):
    g = laurent_gcd(a, b)
    assert_canonical(g)
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
        return
    parts = [shifted(p) for p in (a, b) if not p.is_zero()]
    expected = sympy.gcd(*parts) if len(parts) == 2 else parts[0]
    assert is_unit(to_sympy(g) / expected.as_expr())
    assert g.valuation() == 0 and g[0] > 0


@settings(deadline=None)
@given(polys)
def test_vanishing_order_matches_sympy_factorization(a):
    if a.is_zero():
        assert a.vanishing_order_at_one() == math.inf
        return
    _, factors = sympy.factor_list(shifted(a).as_expr(), Q)
    expected = sum(k for f, k in factors if sympy.expand(f - (Q - 1)) == 0
                   or sympy.expand(f - (1 - Q)) == 0)
    assert a.vanishing_order_at_one() == expected


@given(polys)
def test_eval_at_one_matches_sympy(a):
    assert a.eval_at_one() == to_sympy(a).subs(Q, 1)


@given(st.integers(-(2**70), 2**70))
def test_constants_equal_and_hash_like_their_ints(c):
    p = LaurentPoly({0: c})
    assert p == c
    assert hash(p) == hash(c)
    assert hash(LaurentPoly.coerce(c)) == hash(c)
    assert {c: "int"}[p] == "int"


@given(polys)
def test_equal_values_hash_alike_whatever_the_construction(a):
    rebuilt = LaurentPoly(reversed(list(a.items())))
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert LaurentPoly.from_pairs(a.to_pairs()) == a


contents = st.sampled_from([1, -1, 2, -3, 6, 12])


@settings(max_examples=300, deadline=None)
@given(polys, polys, polys, contents, contents)
def test_gcd_is_exactly_the_rational_euclid_normal_form(g, x, y, k, l):
    """
    The integer remainder sequence returns the very normal form of Euclid
    over Q (tests/oracles.py), not just an associate: operands share the
    factor g and carry non-unit contents of either sign; zero operands,
    constants and negative exponents are drawn by `polys`.
    """
    a, b = k * g * x, l * g * y
    for u, v in ((a, b), (b, a), (a, 0 * a), (0 * b, b), (a, a)):
        assert laurent_gcd(u, v) == rational_gcd(u, v)
    assert laurent_gcd(LaurentPoly.zero(), LaurentPoly.zero()) == rational_gcd(
        LaurentPoly.zero(), LaurentPoly.zero()
    ) == 0
