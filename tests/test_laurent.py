"""Ring arithmetic in Z[q, q^-1]: canonical form, star, specializations."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from qlefschetz.laurent import (
    ExactDivisionError,
    LaurentPoly,
    gcd_many,
    laurent_gcd,
    q,
)


def rand_poly(rng: random.Random, max_span: int = 4, max_coeff: int = 5) -> LaurentPoly:
    lo = rng.randint(-3, 3)
    return LaurentPoly(
        {lo + i: rng.randint(-max_coeff, max_coeff) for i in range(rng.randint(0, max_span))}
    )


def test_canonical_form_drops_zero_terms():
    assert LaurentPoly({0: 1, 1: 0, 2: 0}) == 1
    assert LaurentPoly([(1, 2), (1, -2)]).is_zero()
    assert LaurentPoly({3: 5}) == LaurentPoly([(3, 2), (3, 3)])


def test_ring_op_examples():
    assert (1 - q) + q == 1
    # Expand by hand: (1 - q)(1 - 1/q) = 2 - q - 1/q = -(1/q)(1 - q)^2.
    assert (1 - q) * (1 - q.star()) == LaurentPoly({-1: -1, 0: 2, 1: -1})
    assert (1 - q) * (1 - q.star()) == -q**-1 * (1 - q) ** 2
    assert (1 + q) * (1 + q) == 1 + 2 * q + q**2


def test_ring_axioms_randomized():
    rng = random.Random(101)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == 0


def test_star_examples():
    assert (2 * q - q**-1 + 3).star() == 2 * q**-1 - q + 3
    assert (1 + q).star() == 1 + q**-1
    rng = random.Random(7)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        assert a.star().star() == a
        assert (a * b).star() == a.star() * b.star()
        assert (a + b).star() == a.star() + b.star()
        assert a.star().eval_at_one() == a.eval_at_one()


def test_eval_at_one_examples():
    assert (1 - q).eval_at_one() == 0
    a, b = 2, 3
    assert (a * b * (1 + q)).eval_at_one() == 12
    assert LaurentPoly.zero().eval_at_one() == 0


def test_vanishing_order_examples():
    assert (1 - q).vanishing_order_at_one() == 1
    assert (-(q**-1) * (1 - q) ** 2).vanishing_order_at_one() == 2
    assert (1 + q).vanishing_order_at_one() == 0
    assert LaurentPoly.zero().vanishing_order_at_one() == math.inf


def test_vanishing_order_is_additive():
    rng = random.Random(23)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        if a.is_zero() or b.is_zero():
            continue
        total = (a * b).vanishing_order_at_one()
        assert total == a.vanishing_order_at_one() + b.vanishing_order_at_one()


def test_vanishing_order_matches_eval_and_derivative():
    rng = random.Random(37)
    for _ in range(200):
        a = rand_poly(rng)
        order = a.vanishing_order_at_one()
        assert (order >= 1) == (a.eval_at_one() == 0)
        assert (order >= 2) == (a.eval_at_one() == 0 and a.derivative_at_one() == 0)


def test_derivative_examples():
    assert (1 - q).derivative_at_one() == -1
    assert (q**-1).derivative_at_one() == -1
    assert ((1 - q) ** 2).derivative_at_one() == 0


def test_exact_division_roundtrip():
    rng = random.Random(55)
    for _ in range(150):
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a


def test_exact_division_rejects_remainders():
    with pytest.raises(ExactDivisionError):
        (1 + q).exact_div(1 - q)
    with pytest.raises(ExactDivisionError):
        LaurentPoly({0: 3}).exact_div(LaurentPoly({0: 2}))
    with pytest.raises(ZeroDivisionError):
        (1 + q).exact_div(LaurentPoly.zero())


def test_rational_evaluation_oracle_at_two():
    # Composite expressions computed in canonical form agree with the same
    # expressions evaluated termwise at q = 2 over the rationals.
    rng = random.Random(77)
    two = Fraction(2)
    for _ in range(150):
        a, b, c = (rand_poly(rng) for _ in range(3))
        expr = a * b - c * a + b.star() * c
        expected = (
            a.evaluate(two) * b.evaluate(two)
            - c.evaluate(two) * a.evaluate(two)
            + b.evaluate(Fraction(1, 2)) * c.evaluate(two)
        )
        assert expr.evaluate(two) == expected


def test_units_and_powers():
    assert (q**3).is_unit()
    assert (-q).is_unit()
    assert not (1 + q).is_unit()
    assert q**-2 == LaurentPoly({-2: 1})
    with pytest.raises(ExactDivisionError):
        (1 + q) ** -1


def test_serialization_pairs():
    assert (1 - q).to_pairs() == [[0, "1"], [1, "-1"]]
    rng = random.Random(91)
    for _ in range(100):
        a = rand_poly(rng)
        assert LaurentPoly.from_pairs(a.to_pairs()) == a
    with pytest.raises(ValueError):
        LaurentPoly.from_pairs([[0, "1"], [0, "2"]])
    with pytest.raises(ValueError):
        LaurentPoly.from_pairs([[1, "0"]])


def test_gcd_normal_form():
    assert laurent_gcd(1 - q, LaurentPoly.zero()) == 1 - q
    assert laurent_gcd(q - q**2, (1 - q) ** 2) == 1 - q
    # 6(1+q) and 4(1+q)^2 share 2(1+q).
    assert laurent_gcd(6 * (1 + q), 4 * (1 + q) ** 2) == 2 * (1 + q)
    assert gcd_many([2 * q, 4 * q**2, 6]) == 2


def test_gcd_of_sparse_wide_polynomials_stays_fast():
    """
    The remainders of q^6000 - 1 by q^4000 - 1 have long runs of zero top
    coefficients, which the pseudo-remainder skips: the gcd takes about
    2 ms, and about 0.8 s without that skip.
    """
    start = time.perf_counter()
    assert laurent_gcd(q**6000 - 1, q**4000 - 1) == 1 - q**2000
    assert time.perf_counter() - start < 0.25


def test_gcd_divides_both_randomized():
    rng = random.Random(13)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        g = laurent_gcd(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
            continue
        assert a.exact_div(g) * g == a
        assert b.exact_div(g) * g == b


def test_operator_protocol_defers_to_other_operands():
    class Scalable:
        def __rmul__(self, other):
            return ("scaled", other)

    assert (1 + q) * Scalable() == ("scaled", 1 + q)
    assert (1 + q).__add__("nope") is NotImplemented


def test_coerce_rejects_bools():
    for value in (True, False):
        with pytest.raises(TypeError):
            LaurentPoly.coerce(value)
    assert LaurentPoly.coerce(1) == 1


def test_foreign_operands_name_their_operator():
    with pytest.raises(TypeError, match="for -: 'str' and 'LaurentPoly'"):
        "x" - q
    with pytest.raises(TypeError, match="for /: 'LaurentPoly' and 'float'"):
        q / 1.5
    for other in ("x", 1.5, True, None):
        assert q.__rsub__(other) is NotImplemented
        assert q.__truediv__(other) is NotImplemented
        assert q.__eq__(other) is NotImplemented
    assert 3 - q == LaurentPoly({0: 3, 1: -1})
    assert (q * q - 1) / (q - 1) == 1 + q


def test_constructors_take_only_integers():
    # A float or bool coefficient or exponent would slip into exact
    # arithmetic, and a file written from it would not load again.
    examples = [
        lambda: LaurentPoly({0: 0.1}) * 3,
        lambda: LaurentPoly.monomial(0.5, 1) + 1,
        lambda: LaurentPoly({0: True}),
        lambda: LaurentPoly({True: 2}),
        lambda: LaurentPoly([(0.0, 1)]),
        lambda: LaurentPoly.monomial(1, 2.0),
        lambda: LaurentPoly.monomial(False, 1),
    ]
    for example in examples:
        with pytest.raises(TypeError, match="is not an integer"):
            example()
    assert LaurentPoly({0: 3, -1: 2}) == LaurentPoly.monomial(2, -1) + 3
    for n in (True, 2.0):
        with pytest.raises(TypeError, match=r"for \*\* or pow\(\)"):
            q**n
    assert q**2 == LaurentPoly({2: 1}) and q**-1 == LaurentPoly({-1: 1})


def test_int_comparison_and_hash():
    assert LaurentPoly({0: 5}) == 5
    assert hash(LaurentPoly({0: 5})) == hash(5)
    assert LaurentPoly.zero() == 0
    assert {LaurentPoly({0: 2}): "x"}[LaurentPoly({0: 2})] == "x"
    assert (1 + q) != 2
