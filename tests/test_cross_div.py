"""
The ring's one kernel _cross_div, and the product and exact quotient that
run through it, against the schoolbook oracles in tests/oracles.py.

(a * p - h * b) / d must equal the long division of the schoolbook cross
product by d whenever that division is exact, and raise ExactDivisionError
whenever it is not; a * p and a.exact_div(d) must do the same. Half of the
cases scale a and b by d so that the division is exact; the other half use
an arbitrary d, which mostly does not divide. Operands lean toward
monomials +-q^k and c q^k, and divisors toward q^j, the cases the kernel
answers by shifting the other factor without a buffer; every result must
be canonical.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlefschetz.laurent import ExactDivisionError, LaurentPoly, _cross_div, q

from oracles import long_division, schoolbook_product

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


def assert_canonical(p: LaurentPoly) -> None:
    """No zero coefficient at either end, and zero is (0, ())."""
    assert type(p._coeffs) is tuple
    if p._coeffs:
        assert p._coeffs[0] and p._coeffs[-1]
    else:
        assert p._val == 0


def agrees(run, reference):
    """run() returns what reference() returns, or raises as it does."""
    try:
        expected = reference()
    except ExactDivisionError:
        with pytest.raises(ExactDivisionError):
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
    agrees(lambda: _cross_div(a, p, h, b, d), lambda: long_division(cross, d))
    agrees(lambda: a * p, lambda: schoolbook_product(a, p))
    agrees(lambda: a.exact_div(d), lambda: long_division(a, d))


@bounded
@given(monomials, polys, st.integers(-3, 3), st.booleans())
def test_monomial_factor_shifts_the_other_factor(c, other, j, left):
    a, p = (c, other) if left else (other, c)
    d = q**j
    expected = long_division(schoolbook_product(a, p), d)
    agrees(lambda: _cross_div(a, p, LaurentPoly.zero(), LaurentPoly.zero(), d), lambda: expected)
    agrees(lambda: a * p, lambda: schoolbook_product(a, p))


def test_cross_div_edge_cases():
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    assert _cross_div(zero, q, zero, q, q - 1) == zero
    assert _cross_div(q, q, q, q, 1 + q) == zero  # the products cancel
    assert _cross_div(q**-3, 2 * q, zero, q, 2 * q**-4) == q**2
    assert _cross_div(zero, zero, -one, 1 - q**2, 1 - q) == 1 + q
    assert _cross_div(-q, 1 - q, zero, zero, q**2) == -(q**-1) + 1  # sign and both shifts
    assert _cross_div(2 * q**3, 3 * q**-1, zero, q, q**-1) == 6 * q**3
    p = 1 - q
    assert _cross_div(p, one, zero, zero, one)._coeffs is p._coeffs  # reused as it stands
    with pytest.raises(ExactDivisionError):
        _cross_div(q, one, zero, zero, 2 * one)  # a monomial divisor
    with pytest.raises(ExactDivisionError):
        # 3q / 2q leaves 1 in the top slot; the low slot then cancels exactly.
        _cross_div(1 + 3 * q, one, zero, zero, 1 + 2 * q)
    with pytest.raises(ExactDivisionError):
        _cross_div(one, one, zero, zero, q**2 + 1)  # divisor longer than the product
    with pytest.raises(ZeroDivisionError):
        _cross_div(q, q, one, one, zero)
