"""
The ring's product routine _products and its long division exact_div, and
the product and quotient that run through them, against the schoolbook
oracles in tests/oracles.py.

x1 * y1 + ... + xk * yk must equal the schoolbook sum of products, and its
exact_div by d the long division of that sum by d whenever the division is
exact; exact_div must raise ExactDivisionError whenever it is not and
ZeroDivisionError when d is zero; a * p and a.exact_div(d) must do the
same. Half of the cases scale the first factors by d so that the division
is exact; the other half use an arbitrary d, which mostly does not divide.
Operands lean toward monomials +-q^k and c q^k, the cases _products answers
by shifting the other factor without a buffer, and divisors toward q^j;
every result must be canonical. The examples below pin the division by
monomials c q^k for c = -1, 2 and -3.
"""

from __future__ import annotations

import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlefschetz.laurent import ExactDivisionError, LaurentPoly, _products, q

from oracles import assert_canonical, long_division, schoolbook_product, schoolbook_sum_div

bounded = settings(deadline=None, max_examples=100)

monomials = st.builds(
    LaurentPoly.monomial,
    st.sampled_from([1, -1]) | st.integers(-4, 4).filter(bool),
    st.integers(-3, 3),
)
polys = st.one_of(
    st.just(LaurentPoly.zero()),
    monomials,
    st.builds(
        lambda val, coeffs: LaurentPoly((val + i, c) for i, c in enumerate(coeffs)),
        st.integers(-3, 2),
        st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    ),
)
nonzero = polys.filter(bool)
divisors = st.integers(-3, 3).map(lambda j: q**j) | nonzero


def agrees(run, reference):
    """run() returns what reference() returns, or raises as it does."""
    try:
        expected = reference()
    except (ExactDivisionError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            run()
    else:
        result = run()
        assert result == expected
        assert_canonical(result)


@bounded
@given(polys, polys, polys, polys, divisors, st.booleans())
def test_cross_div_mul_and_exact_div_match_the_oracles(a, p, h, b, d, exact):
    if exact:
        a, b = schoolbook_product(a, d), schoolbook_product(b, d)
    cross = schoolbook_product(a, p) - schoolbook_product(h, b)
    agrees(lambda: _products([(a, p), (-h, b)]), lambda: cross)
    agrees(lambda: _products([(a, p), (-h, b)]).exact_div(d), lambda: long_division(cross, d))
    agrees(lambda: a * p, lambda: schoolbook_product(a, p))
    agrees(lambda: a.exact_div(d), lambda: long_division(a, d))


@bounded
@given(
    st.lists(st.tuples(polys, polys), max_size=4),
    divisors | st.just(LaurentPoly.zero()),
    st.booleans(),
)
def test_sum_of_products_matches_the_oracle(pairs, d, exact):
    if exact:
        pairs = [(schoolbook_product(x, d), y) for x, y in pairs]
    agrees(lambda: _products(pairs), lambda: schoolbook_sum_div(pairs, LaurentPoly.one()))
    agrees(lambda: _products(pairs).exact_div(d), lambda: schoolbook_sum_div(pairs, d))


@bounded
@given(monomials, polys, st.integers(-3, 3), st.booleans())
def test_monomial_factor_shifts_the_other_factor(c, other, j, left):
    a, p = (c, other) if left else (other, c)
    d = q**j
    expected = long_division(schoolbook_product(a, p), d)
    agrees(lambda: _products([(a, p)]).exact_div(d), lambda: expected)
    agrees(lambda: a * p, lambda: schoolbook_product(a, p))


def test_cross_div_edge_cases():
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    assert _products([(zero, q), (zero, q)]).exact_div(q - 1) == zero
    assert _products([(q, q), (-q, q)]).exact_div(1 + q) == zero  # the products cancel
    assert _products([(q**-3, 2 * q), (zero, q)]).exact_div(2 * q**-4) == q**2
    assert _products([(zero, zero), (one, 1 - q**2)]).exact_div(1 - q) == 1 + q
    assert _products([(-q, 1 - q)]).exact_div(q**2) == -(q**-1) + 1  # sign and both shifts
    assert _products([(2 * q**3, 3 * q**-1), (zero, q)]).exact_div(q**-1) == 6 * q**3
    assert _products([]).exact_div(q) == zero
    p = 1 - q
    assert _products([(p, one)])._coeffs is p._coeffs  # reused as it stands
    with pytest.raises(ExactDivisionError):
        _products([(q, one)]).exact_div(2 * one)  # a monomial divisor
    with pytest.raises(ExactDivisionError):
        # 3q / 2q leaves 1 in the top slot; the low slot then cancels exactly.
        _products([(1 + 3 * q, one)]).exact_div(1 + 2 * q)
    with pytest.raises(ExactDivisionError):
        _products([(one, one)]).exact_div(q**2 + 1)  # divisor longer than the product
    with pytest.raises(ZeroDivisionError):
        _products([(q, q), (-one, one)]).exact_div(zero)
    with pytest.raises(ZeroDivisionError):
        _products([]).exact_div(zero)


@pytest.mark.parametrize("k", [-2, 0, 3])
@pytest.mark.parametrize("c", [-1, 2, -3])
def test_monomial_divisor_examples(c, k):
    d = LaurentPoly.monomial(c, k)
    x, y = 1 - 2 * q + q**3, 3 * q**-1 + q
    # c (x q + y - q^4) is exact, and its top terms cancel, so the buffer is trimmed.
    exact = [(c * x, q), (c * y, LaurentPoly.one()), (c * q, -(q**3))]
    result = _products(exact).exact_div(d)
    assert result == schoolbook_sum_div(exact, d)
    assert_canonical(result)
    assert _products([(x, d), (-x, d)]).exact_div(d) == LaurentPoly.zero()  # the sum cancels
    if c != -1:  # -1 divides everything
        inexact = [(c * x, q), (LaurentPoly.one(), q**2)]
        total = schoolbook_sum_div(inexact, LaurentPoly.one())
        with pytest.raises(ExactDivisionError, match=re.escape(f"{d} does not divide {total}")):
            _products(inexact).exact_div(d)


def test_a_quotient_with_long_zero_runs_divides_fast():
    """
    (1 + q^6000)(1 + q^3000) / (1 + q^3000) has a quotient of 6001
    coefficients, all zero but two. Long division subtracts the divisor's
    3000 low coefficients only for a nonzero quotient coefficient, so this
    takes about 2 ms; subtracting for every one takes about 0.8 s.
    """
    d, r = 1 + q**3000, 1 + q**6000
    product = d * r
    start = time.perf_counter()
    assert product.exact_div(d) == r
    assert time.perf_counter() - start < 0.25
