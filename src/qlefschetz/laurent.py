"""
Exact arithmetic in the ring Z[q, q^-1] of integer Laurent polynomials.

Every pairing computed by this package (q-intersection numbers, monodromy
entries, coordinates of K-theory classes) lives in this ring. Values are
immutable and kept in canonical sparse form: a map from exponent to nonzero
coefficient, so two values are equal exactly when their term maps are equal.
Coefficients are Python ints and never overflow.

The units of Z[q, q^-1] are +-q^k; "content" of a polynomial means the gcd
of its integer coefficients, and "primitive" means content 1.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

IntoPoly = Union[int, "LaurentPoly"]

_NUMERAL = re.compile(r"-?[0-9]+")


class ExactDivisionError(ArithmeticError):
    """Raised when a division in Z[q, q^-1] is requested but not exact."""


class LaurentPoly:
    """
    An integer Laurent polynomial in the variable q.

    >>> p = LaurentPoly({0: 1, 1: -1})    # 1 - q
    >>> p * p.star()                      # (1 - q)(1 - 1/q)
    LaurentPoly('-q^-1 + 2 - q')
    >>> p + LaurentPoly({1: 1})
    LaurentPoly('1')
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for exp, coeff in items:
            acc[exp] = acc.get(exp, 0) + coeff
        self._terms = {e: c for e, c in acc.items() if c != 0}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> LaurentPoly:
        """The single term coeff * q^exp."""
        return cls({exp: coeff})

    @staticmethod
    def coerce(value: IntoPoly) -> LaurentPoly:
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return LaurentPoly({0: value})
        raise TypeError(f"cannot interpret {value!r} as a Laurent polynomial")

    # -- structure -----------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        """Terms as (exponent, coefficient) pairs, by increasing exponent."""
        return iter(sorted(self._terms.items()))

    def __getitem__(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_unit(self) -> bool:
        """Whether this is a unit +-q^k of the ring."""
        return len(self._terms) == 1 and abs(next(iter(self._terms.values()))) == 1

    def degree(self) -> int:
        """Largest exponent with nonzero coefficient."""
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        return max(self._terms)

    def valuation(self) -> int:
        """Smallest exponent with nonzero coefficient."""
        if not self._terms:
            raise ValueError("the zero polynomial has no valuation")
        return min(self._terms)

    def span(self) -> int:
        """Degree minus valuation; the width of the exponent window."""
        return self.degree() - self.valuation()

    def content(self) -> int:
        """Gcd of the integer coefficients (0 for the zero polynomial)."""
        return math.gcd(*self._terms.values()) if self._terms else 0

    # -- ring operations -----------------------------------------------

    def __add__(self, other: IntoPoly) -> LaurentPoly:
        if not isinstance(other, (int, LaurentPoly)) or isinstance(other, bool):
            return NotImplemented
        other = LaurentPoly.coerce(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            terms[e] = terms.get(e, 0) + c
        return LaurentPoly(terms)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: IntoPoly) -> LaurentPoly:
        if not isinstance(other, (int, LaurentPoly)) or isinstance(other, bool):
            return NotImplemented
        return self + (-LaurentPoly.coerce(other))

    def __rsub__(self, other: IntoPoly) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other: IntoPoly) -> LaurentPoly:
        if not isinstance(other, (int, LaurentPoly)) or isinstance(other, bool):
            return NotImplemented
        other = LaurentPoly.coerce(other)
        terms: dict[int, int] = {}
        for e0, c0 in self._terms.items():
            for e1, c1 in other._terms.items():
                e = e0 + e1
                terms[e] = terms.get(e, 0) + c0 * c1
        return LaurentPoly(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            if not self.is_unit():
                raise ExactDivisionError(f"{self} is not invertible in Z[q, q^-1]")
            (exp, coeff), = self._terms.items()
            return LaurentPoly({-exp: coeff}) ** (-n)
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other: IntoPoly) -> LaurentPoly:
        return self.exact_div(LaurentPoly.coerce(other))

    def exact_div(self, divisor: LaurentPoly) -> LaurentPoly:
        """
        Exact division in Z[q, q^-1]; raises ExactDivisionError when the
        divisor does not divide self. This is the only division the ring
        module offers, because it is only ever needed inside fraction-free
        elimination, where exactness is guaranteed.

        >>> p = LaurentPoly({0: -1, 1: 2, 2: -1})   # -(1 - q)^2
        >>> p.exact_div(LaurentPoly({0: 1, 1: -1}))
        LaurentPoly('-1 + q')
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()

        # Shift both operands to ordinary polynomials with nonzero constant
        # term; units only move the answer by a monomial.
        shift = self.valuation() - divisor.valuation()
        num = _dense(self)
        den = _dense(divisor)

        quot = [0] * (len(num) - len(den) + 1) if len(num) >= len(den) else []
        if not quot:
            raise ExactDivisionError(f"{divisor} does not divide {self}")
        rem = list(num)
        lead = den[-1]
        for i in range(len(quot) - 1, -1, -1):
            c, r = divmod(rem[i + len(den) - 1], lead)
            if r != 0:
                raise ExactDivisionError(f"{divisor} does not divide {self}")
            quot[i] = c
            for j, d in enumerate(den):
                rem[i + j] -= c * d
        if any(rem):
            raise ExactDivisionError(f"{divisor} does not divide {self}")
        return LaurentPoly({shift + i: c for i, c in enumerate(quot)})

    # -- involution and specializations ----------------------------------

    def star(self) -> LaurentPoly:
        """
        The involution q -> q^-1, negating every exponent. Together with
        matrix transposition this is the hermitian conjugation of the
        whole theory.

        >>> LaurentPoly({-1: -1, 0: 3, 1: 2}).star()
        LaurentPoly('2q^-1 + 3 - q')
        """
        return LaurentPoly({-e: c for e, c in self._terms.items()})

    def eval_at_one(self) -> int:
        """Value at q = 1, i.e. the sum of the coefficients."""
        return sum(self._terms.values())

    def derivative_at_one(self) -> int:
        """Value of the formal derivative d/dq at q = 1: sum of k * c_k."""
        return sum(e * c for e, c in self._terms.items())

    def vanishing_order_at_one(self) -> int | float:
        """
        The largest k such that (1 - q)^k divides self; math.inf for zero.

        >>> p = LaurentPoly({0: 1, 1: -1})
        >>> (p * p * LaurentPoly({-1: -1})).vanishing_order_at_one()
        2
        >>> LaurentPoly({0: 1, 1: 1}).vanishing_order_at_one()
        0
        """
        if self.is_zero():
            return math.inf
        coeffs = _dense(self)
        order = 0
        while sum(coeffs) == 0:
            # Synthetic division by (q - 1); a unit multiple of (1 - q).
            quot = [0] * (len(coeffs) - 1)
            carry = 0
            for i in range(len(coeffs) - 1, 0, -1):
                carry += coeffs[i]
                quot[i - 1] = carry
            coeffs = quot
            order += 1
        return order

    def evaluate(self, x: int | Fraction) -> Fraction:
        """Exact value at a nonzero rational point, for cross-checks."""
        x = Fraction(x)
        if x == 0:
            raise ZeroDivisionError("Laurent polynomials cannot be evaluated at 0")
        return sum((c * x**e for e, c in self._terms.items()), Fraction(0))

    # -- serialization ---------------------------------------------------

    def to_pairs(self) -> list[list[int | str]]:
        """
        Wire form: [exponent, coefficient] pairs with strictly increasing
        exponents; coefficients as decimal strings so they survive readers
        with 64-bit integers. 1 - q becomes [[0, "1"], [1, "-1"]].
        """
        return [[e, str(c)] for e, c in self.items()]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int | str]]) -> LaurentPoly:
        """Inverse of to_pairs; rejects bool, float and loose numerals like " 1_0"."""
        terms: dict[int, int] = {}
        last = None
        for pair in pairs:
            exp, coeff = pair
            if not isinstance(exp, int) or isinstance(exp, bool):
                raise ValueError(f"exponent {exp!r} is not an integer")
            if not (type(coeff) is int or isinstance(coeff, str) and _NUMERAL.fullmatch(coeff)):
                raise ValueError(f"coefficient {coeff!r} is not a decimal integer")
            coeff = int(coeff)
            if coeff == 0:
                raise ValueError(f"zero coefficient at exponent {exp}")
            if last is not None and exp <= last:
                raise ValueError("exponents must be strictly increasing")
            last = exp
            terms[exp] = coeff
        return cls(terms)

    # -- comparison and display -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            other = LaurentPoly.coerce(other)
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        # Constants hash like the ints they equal.
        if not self._terms:
            return hash(0)
        if len(self._terms) == 1 and 0 in self._terms:
            return hash(self._terms[0])
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in self.items():
            power = "" if e == 0 else "q" if e == 1 else f"q^{e}"
            if power:
                body = power if abs(c) == 1 else f"{abs(c)}{power}"
            else:
                body = str(abs(c))
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


def _dense(p: LaurentPoly) -> list[int]:
    """Dense coefficient list of q^-val * p, constant term first."""
    val = p.valuation()
    coeffs = [0] * (p.span() + 1)
    for e, c in p.items():
        coeffs[e - val] = c
    return coeffs


def laurent_gcd(a: IntoPoly, b: IntoPoly) -> LaurentPoly:
    """
    A gcd of a and b in Z[q, q^-1], determined up to units and returned in
    the normal form with valuation 0 and positive constant term. Computed
    as (gcd of contents) * (gcd of primitive parts over Q, by Euclid).
    """
    a, b = LaurentPoly.coerce(a), LaurentPoly.coerce(b)
    if a.is_zero():
        return _unit_normal(b)
    if b.is_zero():
        return _unit_normal(a)

    content = math.gcd(a.content(), b.content())
    fa = [Fraction(c, a.content()) for c in _dense(a)]
    fb = [Fraction(c, b.content()) for c in _dense(b)]
    while any(fb):
        fa, fb = fb, _poly_mod(fa, fb)
    # Clear denominators and make the rational gcd a primitive integer one.
    denom = math.lcm(*(f.denominator for f in fa))
    ints = [int(f * denom) for f in fa]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    return _unit_normal(LaurentPoly({i: content * c for i, c in enumerate(ints)}))


def gcd_many(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    """Gcd of a collection, in the same normal form as laurent_gcd."""
    acc = LaurentPoly.zero()
    for p in polys:
        acc = laurent_gcd(acc, p)
        if acc == 1:
            break
    return acc


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of dense rational polynomial division (trailing zeros cut)."""
    while b and b[-1] == 0:
        b = b[:-1]
    rem = list(a)
    while len(rem) >= len(b) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(b):
            break
        factor = rem[-1] / b[-1]
        offset = len(rem) - len(b)
        for i, c in enumerate(b):
            rem[offset + i] -= factor * c
        rem.pop()
    return rem


def _unit_normal(p: LaurentPoly) -> LaurentPoly:
    """The unit multiple of p with valuation 0 and positive constant term."""
    if p.is_zero():
        return p
    val = p.valuation()
    sign = 1 if p[val] > 0 else -1
    return LaurentPoly({e - val: sign * c for e, c in p.items()})


#: The generator q, so that expressions read like the formulas they encode.
q = LaurentPoly({1: 1})
