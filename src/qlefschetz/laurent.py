"""
Exact arithmetic in the ring Z[q, q^-1] of integer Laurent polynomials.

Every pairing computed by this package (q-intersection numbers, monodromy
entries, coordinates of K-theory classes) lives in this ring. Values are
immutable and kept in one canonical dense form: the valuation and the tuple
of coefficients up to the degree, with no zero at either end (zero is
valuation 0 and the empty tuple). Coefficients are Python ints and never
overflow.

Every product and sum of products runs one routine, _products, which
computes x1 * y1 + x2 * y2 + ... in one buffer, and every exact quotient
runs one long division, LaurentPoly.exact_div; plain sums and gcds keep
their own loops.

>>> _products([(1 + q, 1 + q), (q, -q)]).exact_div(1 + 2 * q)   # (1 + 2q) / (1 + 2q)
LaurentPoly('1')

The units of Z[q, q^-1] are +-q^k; "content" of a polynomial means the gcd
of its integer coefficients, and "primitive" means content 1. Gcds are
computed over Z by the primitive polynomial remainder sequence, so the ring
needs no rational numbers.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

IntoPoly = Union[int, "LaurentPoly"]

_NUMERAL = re.compile(r"-?[0-9]+")

#: from_pairs accepts exponents e with |e| <= MAX_SPAN // 2, so every exponent
#: window in a loaded file is at most MAX_SPAN; the dense form allocates the
#: window. Moves can reach larger exponents in memory (rescale by q^40000);
#: serialize.fibration_to_obj asks from_pairs before writing such an entry.
MAX_SPAN = 2**16

#: from_pairs accepts coefficients, integers or numeral strings, of at most
#: MAX_DIGITS decimal digits, below the interpreter's default int/str limit of
#: 4300, so that a file is never slow to convert; fibration_to_obj asks
#: from_pairs too. Reports have no limit (see _decimal).
MAX_DIGITS = 4096
DIGITS_BOUND = 10**MAX_DIGITS  # the least integer of more than MAX_DIGITS digits


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

    __slots__ = ("_val", "_coeffs")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for exp, coeff in items:
            _check_term(coeff, exp)
            acc[exp] = acc.get(exp, 0) + coeff
        val = min(acc, default=0)
        p = _poly(val, [acc.get(e, 0) for e in range(val, max(acc, default=-1) + 1)])
        self._val, self._coeffs = p._val, p._coeffs

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return _ZERO

    @classmethod
    def one(cls) -> LaurentPoly:
        return _ONE

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> LaurentPoly:
        """The single term coeff * q^exp."""
        _check_term(coeff, exp)
        return _poly(exp, (coeff,))

    @staticmethod
    def coerce(value: IntoPoly) -> LaurentPoly:
        p = _element(value)
        if p is None:
            raise TypeError(f"cannot interpret {value!r} as a Laurent polynomial")
        return p

    # -- structure -----------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        """Terms as (exponent, coefficient) pairs, by increasing exponent."""
        return ((self._val + i, c) for i, c in enumerate(self._coeffs) if c)

    def __getitem__(self, exp: int) -> int:
        i = exp - self._val
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else 0

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_unit(self) -> bool:
        """Whether this is a unit +-q^k of the ring."""
        return len(self._coeffs) == 1 and abs(self._coeffs[0]) == 1

    def degree(self) -> int:
        """Largest exponent with nonzero coefficient."""
        if not self._coeffs:
            raise ValueError("the zero polynomial has no degree")
        return self._val + len(self._coeffs) - 1

    def valuation(self) -> int:
        """Smallest exponent with nonzero coefficient."""
        if not self._coeffs:
            raise ValueError("the zero polynomial has no valuation")
        return self._val

    def span(self) -> int:
        """Degree minus valuation; the width of the exponent window."""
        return self.degree() - self.valuation()

    def content(self) -> int:
        """Gcd of the integer coefficients (0 for the zero polynomial)."""
        return math.gcd(*self._coeffs)

    # -- ring operations -----------------------------------------------

    def __add__(self, other: IntoPoly) -> LaurentPoly:
        other = _element(other)
        if other is None:
            return NotImplemented
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        val = min(self._val, other._val)
        top = max(self._val + len(self._coeffs), other._val + len(other._coeffs))
        coeffs = [0] * (top - val)
        for p in (self, other):
            offset = p._val - val
            for i, c in enumerate(p._coeffs):
                coeffs[offset + i] += c
        return _poly(val, coeffs)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return _poly(self._val, [-c for c in self._coeffs])

    def __sub__(self, other: IntoPoly) -> LaurentPoly:
        other = _element(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other: IntoPoly) -> LaurentPoly:
        other = _element(other)
        return NotImplemented if other is None else (-self) + other

    def __mul__(self, other: IntoPoly) -> LaurentPoly:
        other = _element(other)
        return NotImplemented if other is None else _products(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if not _integer(n):
            return NotImplemented
        if n < 0:
            if not self.is_unit():
                raise ExactDivisionError(f"{self} is not invertible in Z[q, q^-1]")
            return _poly(-self._val, self._coeffs) ** (-n)
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other: IntoPoly) -> LaurentPoly:
        other = _element(other)
        return NotImplemented if other is None else self.exact_div(other)

    def exact_div(self, divisor: LaurentPoly) -> LaurentPoly:
        """
        The quotient self / divisor in Z[q, q^-1], also spelled `/`; raises
        ExactDivisionError when divisor does not divide self. Long division
        from the top: each quotient coefficient overwrites the slot it
        cleared, and a zero one subtracts nothing, so buf[n - 1:] ends as the
        quotient and buf[:n - 1] as the remainder, n the divisor's length.
        An exact quotient of canonical polynomials is trimmed, and zero is
        returned at once (most entries of a kernel vector are zero).

        >>> p = LaurentPoly({0: -1, 1: 2, 2: -1})   # -(1 - q)^2
        >>> p.exact_div(LaurentPoly({0: 1, 1: -1}))
        LaurentPoly('-1 + q')
        """
        den = divisor._coeffs
        if not den:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._coeffs:
            return self
        buf, n, lead = list(self._coeffs), len(den), den[-1]
        low = den[:-1]
        for i in range(len(buf) - n, -1, -1):
            c, r = divmod(buf[i + n - 1], lead)
            if r:
                break
            if c:
                j = i
                for v in low:
                    buf[j] -= c * v
                    j += 1
            buf[i + n - 1] = c
        else:
            if not any(buf[: n - 1]):
                return _poly(self._val - divisor._val, buf[n - 1 :])
        raise ExactDivisionError(f"{divisor} does not divide {self}")

    # -- involution and specializations ----------------------------------

    def star(self) -> LaurentPoly:
        """
        The involution q -> q^-1, negating every exponent. Together with
        matrix transposition this is the hermitian conjugation of the
        whole theory.

        >>> LaurentPoly({-1: -1, 0: 3, 1: 2}).star()
        LaurentPoly('2q^-1 + 3 - q')
        """
        return _poly(1 - self._val - len(self._coeffs), self._coeffs[::-1])

    def eval_at_one(self) -> int:
        """Value at q = 1, i.e. the sum of the coefficients."""
        return sum(self._coeffs)

    def derivative_at_one(self) -> int:
        """Value of the formal derivative d/dq at q = 1: sum of k * c_k."""
        return sum(e * c for e, c in self.items())

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
        one_minus_q = _poly(0, (1, -1))
        p, order = self, 0
        while p.eval_at_one() == 0:
            p = p.exact_div(one_minus_q)
            order += 1
        return order

    def evaluate(self, x: int | Fraction) -> Fraction:
        """Exact value at a nonzero rational point, for cross-checks."""
        from fractions import Fraction

        x = Fraction(x)
        if x == 0:
            raise ZeroDivisionError("Laurent polynomials cannot be evaluated at 0")
        return sum((c * x**e for e, c in self.items()), Fraction(0))

    # -- serialization ---------------------------------------------------

    def to_pairs(self) -> list[list[int | str]]:
        """
        Wire form: [exponent, coefficient] pairs with strictly increasing
        exponents; coefficients as decimal strings so they survive readers
        with 64-bit integers. 1 - q becomes [[0, "1"], [1, "-1"]].
        """
        return [[e, _decimal(c)] for e, c in self.items()]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int | str]]) -> LaurentPoly:
        """
        Inverse of to_pairs, and the one statement of what a file entry may
        hold: no bool, float or loose numeral like " 1_0", no coefficient of
        more than MAX_DIGITS digits, no exponent of absolute value over MAX_SPAN // 2.
        """
        dense: list[int] = []  # coefficients from the first exponent up
        val = last = 0
        for pair in pairs:
            exp, coeff = pair
            if not _integer(exp):
                raise ValueError(f"exponent {exp!r} is not an integer")
            if isinstance(coeff, str) and _NUMERAL.fullmatch(coeff):
                too_long = len(coeff) - coeff.startswith("-") > MAX_DIGITS  # before int()
            elif _integer(coeff):
                too_long = abs(coeff) >= DIGITS_BOUND  # never str() of a large int
            else:
                raise ValueError(f"coefficient {coeff!r} is not a decimal integer")
            if too_long:
                raise ValueError(f"coefficient at exponent {exp} has more than {MAX_DIGITS} digits")
            coeff = int(coeff)
            if coeff == 0:
                raise ValueError(f"zero coefficient at exponent {exp}")
            if dense and exp <= last:
                raise ValueError("exponents must be strictly increasing")
            if abs(exp) > MAX_SPAN // 2:
                raise ValueError(f"exponent {exp} exceeds {MAX_SPAN // 2} in absolute value")
            if dense:
                dense.extend([0] * (exp - last - 1))
            else:
                val = exp
            dense.append(coeff)
            last = exp
        return _poly(val, dense)

    # -- comparison and display -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is not LaurentPoly:  # the common case skips _element
            other = _element(other)
            if other is None:
                return NotImplemented
        return self._val == other._val and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        # Constants, zero included, hash like the ints they equal.
        if self._val == 0 and len(self._coeffs) <= 1:
            return hash(sum(self._coeffs))
        return hash((self._val, self._coeffs))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for e, c in self.items():
            power = "" if e == 0 else "q" if e == 1 else f"q^{e}"
            body = power if power and abs(c) == 1 else _decimal(abs(c)) + power
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


def _integer(value: object) -> bool:
    """Whether value is an integer of the ring: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _element(value: object) -> LaurentPoly | None:
    """value as a ring element, or None: the ring takes only itself and integers."""
    if isinstance(value, LaurentPoly):
        return value
    return _poly(0, (value,)) if _integer(value) else None


def _check_term(coeff: object, exp: object) -> None:
    """Refuse a term coeff * q^exp whose exponent or coefficient is not an integer."""
    for name, value in (("exponent", exp), ("coefficient", coeff)):
        if not _integer(value):
            raise TypeError(f"{name} {value!r} is not an integer")


def _decimal(c: int) -> str:
    """
    str(c), also beyond the interpreter's int/str digit limit: such an int
    is converted in chunks of 600 digits, below the lowest value the limit
    can be set to (640), and the limit itself is left alone.

    >>> len(_decimal(-10**5000))
    5002
    """
    try:
        return str(c)
    except ValueError:
        pass
    chunks, rest = [], abs(c)
    while rest:
        rest, chunk = divmod(rest, 10**600)
        chunks.append(chunk)
    head = ("-" if c < 0 else "") + str(chunks.pop())
    return head + "".join(f"{chunk:0600d}" for chunk in reversed(chunks))


def _poly(val: int, coeffs: Sequence[int]) -> LaurentPoly:
    """The internal constructor: sum of coeffs[i] q^(val + i), zero ends trimmed."""
    lo, hi = 0, len(coeffs)
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    p = LaurentPoly.__new__(LaurentPoly)
    p._val, p._coeffs = (val + lo, tuple(coeffs[lo:hi])) if lo < hi else (0, ())
    return p


_ZERO, _ONE = _poly(0, ()), _poly(0, (1,))


def _products(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """
    x1 * y1 + x2 * y2 + ... over the factor pairs (x, y), in one pass: every
    product is convolved into one integer buffer, which _poly trims once.
    Pairs with a zero factor are skipped, and so are the zero coefficients
    of each pair's shorter factor. A single product with a monomial factor
    c q^k is the other factor, scaled by c unless c = 1 and shifted by k,
    with no buffer; the other factor's tuple is kept as it is.

    >>> _products([(q, 1 - q), (LaurentPoly.one(), q**2)])   # the top terms cancel
    LaurentPoly('q')
    """
    # The nonzero products as (lowest exponent, factor, factor), the shorter
    # factor first, and the exponent window [val, top) that holds them all.
    terms = []
    val = top = 0
    for x, y in pairs:
        xc, yc = x._coeffs, y._coeffs
        if xc and yc:
            lo = x._val + y._val
            hi = lo + len(xc) + len(yc) - 1
            if not terms:
                val, top = lo, hi
            elif lo < val:
                val = lo
            if hi > top:
                top = hi
            terms.append((lo, xc, yc) if len(xc) <= len(yc) else (lo, yc, xc))
    if not terms:
        return _ZERO
    if len(terms) == 1 and len(terms[0][1]) == 1:
        _, (c,), rest = terms[0]
        return _poly(val, rest if c == 1 else tuple([c * y for y in rest]))
    buf = [0] * (top - val)
    for lo, xc, yc in terms:
        k = lo - val
        for x in xc:
            if x:
                j = k
                for y in yc:
                    buf[j] += x * y
                    j += 1
            k += 1
    return _poly(val, buf)


def laurent_gcd(a: IntoPoly, b: IntoPoly) -> LaurentPoly:
    """
    A gcd of a and b in Z[q, q^-1], determined up to units and returned in
    the normal form with valuation 0 and positive constant term. Computed
    as (gcd of contents) * (gcd of primitive parts), the latter by the
    primitive polynomial remainder sequence over Z (Brown 1971): each
    pseudo-remainder is made primitive, so no fraction is ever formed. A
    zero operand has content 0 and no coefficients, so it drops out.

    >>> laurent_gcd(LaurentPoly({-2: 6, -1: -6}), LaurentPoly({0: -4, 2: 4}))
    LaurentPoly('2 - 2q')
    """
    a, b = LaurentPoly.coerce(a), LaurentPoly.coerce(b)
    content_a, content_b = a.content(), b.content()
    fa = tuple(c // content_a for c in a._coeffs)
    fb = tuple(c // content_b for c in b._coeffs)
    while fb:
        fa, fb = fb, _primitive_prem(fa, fb)
    content = math.gcd(content_a, content_b)
    if fa and fa[0] < 0:
        content = -content
    return _poly(0, [content * c for c in fa])


def gcd_many(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    """Gcd of a collection, in the same normal form as laurent_gcd."""
    acc = LaurentPoly.zero()
    for p in polys:
        acc = laurent_gcd(acc, p)
        if acc == 1:
            break
    return acc


def _primitive_prem(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """
    The primitive part of a pseudo-remainder of a by b (dense coefficients
    from exponent 0, b trimmed), trimmed at both ends: q is a unit and does
    not divide b. Each step scales by lead(b) over its gcd with the top.
    """
    rem, n, lead = list(a), len(b), b[-1]
    while len(rem) >= n:
        top = rem.pop()
        if top:
            g = math.gcd(top, lead)
            scale, factor = lead // g, top // g
            rem = [scale * x for x in rem]
            for i, y in enumerate(b[:-1], len(rem) + 1 - n):
                rem[i] -= factor * y
    coeffs = _poly(0, rem)._coeffs
    g = math.gcd(*coeffs)
    return tuple(c // g for c in coeffs)


#: The generator q, so that expressions read like the formulas they encode.
q = LaurentPoly({1: 1})
