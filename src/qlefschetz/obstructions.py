"""
Lagrangian-topology consequences of a fibration datum.

A closed Lagrangian brane in the total space determines a class l in the
coordinate module with intersection @ l = 0, and its self-pairing equals
its q-self-intersection number. A rational homology sphere would have to
have self-pairing exactly 1 + (-1)^n q, so the kernel of the intersection
matrix carries obstructions: this module extracts a kernel basis,
decides the sphere equation in the rank <= 1 cases, and produces the
nonzero/primitive and linear-independence certificates that follow from
derivative-at-one arguments.

All verdicts are about the algebraic equation only; NotObstructed does not
assert that any actual Lagrangian sphere exists.
"""

from __future__ import annotations

import math
from functools import partial
from enum import Enum

from .laurent import LaurentPoly
from .lefschetz import LefschetzAlgebra, parity_sign
from .matrix import FrozenRecord, KClass, pairing_matrix


class HypothesisError(ValueError):
    """The certificate's hypotheses fail; nothing is asserted either way."""


class Verdict(Enum):
    OBSTRUCTED = "obstructed"
    NOT_OBSTRUCTED = "not-obstructed"
    INCONCLUSIVE = "inconclusive"


class SphereTestResult(FrozenRecord):
    """
    Outcome of the sphere-class equation. `branch` names the decision step
    that fired; NotObstructed carries a witness f, verified exactly to give
    star(f) f <h, h> equal to the spherical value; Inconclusive carries the
    reason the procedure cannot decide. `kernel` holds the kernel basis vectors
    the test ran on, `self_pairings` their self-pairings in the same order.
    """

    __slots__ = ("verdict", "branch", "witness", "reason", "kernel", "self_pairings")
    _defaults = {"witness": None, "reason": None, "kernel": (), "self_pairings": ()}
    verdict: Verdict
    branch: str
    witness: LaurentPoly | None
    reason: str | None
    kernel: tuple[KClass, ...]
    self_pairings: tuple[LaurentPoly, ...]


def kernel_classes(alg: LefschetzAlgebra) -> list[KClass]:
    """
    Canonical primitive vectors of the intersection-matrix kernel: a basis
    over Q(q), which generates the integral kernel when every free entry
    is a unit (always for rank 1, by the content argument of sphere_test).
    """
    return alg.intersection.nullspace()


def self_pairing(alg: LefschetzAlgebra, l: KClass) -> LaurentPoly:
    """The q-self-intersection number of a class."""
    return alg.pairing(l, l)


def spherical_value(dim: int) -> LaurentPoly:
    """The self-pairing 1 + (-1)^n q that any homology-sphere class takes."""
    return LaurentPoly({0: 1, 1: parity_sign(dim)})


def sphere_test(alg: LefschetzAlgebra) -> SphereTestResult:
    """
    Decide whether any class l in the kernel of the intersection matrix can
    have self-pairing equal to the spherical value 1 + (-1)^n q.

    Every integral kernel class is f h for the primitive generator h (the
    kernel has unit content, so this is the content argument in the UFD
    Z[q, q^-1]), which turns the question into star(f) f c = 1 + (-1)^n q
    for c the generator's self-pairing. The exponent span of star(f) f is
    even, so c must have span exactly 1 with f a monomial +-a q^k, making
    star(f) f = a^2. B h = 0 gives c = (-1)^n q star(c), so a span-1 c is
    c[0] (1 + (-1)^n q), and the equation reduces to a^2 c[0] = 1. Kernels
    of rank two or more are reported Inconclusive: deciding them needs
    information beyond the pairing. The kernel and every generator's
    self-pairing are computed once and returned with the verdict.
    """
    target = spherical_value(alg.dim)
    kernel = tuple(kernel_classes(alg))
    pairings = tuple(self_pairing(alg, h) for h in kernel)
    result = partial(SphereTestResult, kernel=kernel, self_pairings=pairings)
    if not kernel:
        return result(Verdict.OBSTRUCTED, "kernel rank 0")
    if len(kernel) > 1:
        return result(
            Verdict.INCONCLUSIVE,
            f"kernel rank {len(kernel)}",
            reason="a rank >= 2 kernel is not decided by the self-pairing alone",
        )

    c = pairings[0]
    if c.is_zero():
        return result(Verdict.OBSTRUCTED, "kernel generator pairs to zero")
    if c.span() != 1:
        return result(
            Verdict.OBSTRUCTED,
            f"self-pairing span {c.span()} != 1, but star(f) f has even span",
        )
    # c is c[0] (1 + (-1)^n q), so a^2 c == target forces a^2 == c[0] == 1.
    if c == target:
        return result(Verdict.NOT_OBSTRUCTED, "witness f = 1", witness=LaurentPoly.one())
    return result(
        Verdict.OBSTRUCTED,
        "no positive integer square a^2 solves a^2 (self-pairing) = spherical value",
    )


def nonzero_primitive_certificate(p: LaurentPoly) -> tuple[bool, int]:
    """
    Certificates extracted from the self-pairing p of a Lagrangian class l.

    First component: True when (1 - q)^2 does not divide p. A class whose
    q = 1 reduction vanishes is a multiple of (1 - q), which forces its
    self-pairing to be divisible by (1 - q^-1)(1 - q); so True certifies
    that the reduction is nonzero.

    Second component: gcd(|p(1)|, |p'(1)|). A prime dividing every entry of
    the q = 1 reduction divides both numbers, so a gcd of 1 certifies that
    the reduction is primitive. gcd(0, 0) is reported as 0: no certificate.
    """
    nonzero_at_one = p.vanishing_order_at_one() < 2
    bound = math.gcd(abs(p.eval_at_one()), abs(p.derivative_at_one()))
    return nonzero_at_one, bound


def betti_lower_bound(p: LaurentPoly) -> int:
    """
    Sum of the absolute values of the coefficients of a self-pairing: each
    coefficient is a signed count of weight-k generators of the endomorphism
    space, so the sum bounds the total Betti number of the brane from below.
    """
    return sum(abs(c) for _, c in p.items())


def independence_certificate(alg: LefschetzAlgebra, classes: list[KClass]) -> bool:
    """
    Certify that the q = 1 reductions of the given classes are linearly
    independent over Z. Applies only in odd parity to families whose Gram
    matrix is exactly (1 - q) times the identity (spherical self-pairings,
    vanishing mutual pairings): any integer relation would make a sum of
    squares times (1 - q) divisible by (1 - q)^2. Raises HypothesisError
    when the hypotheses fail; that signals "certificate does not apply",
    not a dependence.
    """
    if alg.parity_sign == 1:
        raise HypothesisError("the independence certificate needs odd parity")
    target = spherical_value(alg.dim)
    for ij, value in enumerate(pairing_matrix(alg.seifert, classes).entries):
        i, j = divmod(ij, len(classes))
        expected = target if i == j else LaurentPoly.zero()
        if value != expected:
            raise HypothesisError(f"Gram entry ({i + 1}, {j + 1}) is {value}, expected {expected}")
    return True
