"""Kernel classes, the sphere-class equation, and integer certificates."""

from __future__ import annotations

import math
import random

import pytest

from qlefschetz.catalog import induced_total_space, milnor_ar
from qlefschetz.laurent import ExactDivisionError, LaurentPoly, q
from qlefschetz.lefschetz import LefschetzAlgebra
from qlefschetz.matrix import KClass, LaurentMatrix
from qlefschetz.moves import TwistWord
from qlefschetz.obstructions import (
    HypothesisError,
    Verdict,
    betti_lower_bound,
    independence_certificate,
    kernel_classes,
    nonzero_primitive_certificate,
    self_pairing,
    sphere_test,
    spherical_value,
)

from oracles import band_matrix, mirror_p2_matrix, rand_kclass


def band_algebra(a: int, b: int, n: int) -> LefschetzAlgebra:
    return LefschetzAlgebra.from_intersection(n, band_matrix(a, b, n))


def positive_control(dim: int) -> LefschetzAlgebra:
    """
    A rank-one-kernel algebra whose kernel generator has exactly the
    spherical self-pairing. For odd parity the Seifert entry 1 + q works;
    for even parity 1 - q does. In both cases the kernel is (1, -1).
    """
    entry = 1 - q if dim % 2 == 0 else 1 + q
    seifert = LaurentMatrix.from_rows([[1, entry], [0, 1]])
    return LefschetzAlgebra.from_seifert(dim, seifert)


def test_kernel_classes_of_band_algebras():
    for a, b in ((1, 2), (2, 3), (2, 5), (3, 4)):
        for n in (3, 4):
            assert kernel_classes(band_algebra(a, b, n)) == [
                KClass([1] * (a + b))
            ]


def test_kernel_classes_empty_cases():
    for n in (3, 4):
        alg = LefschetzAlgebra.from_intersection(n, mirror_p2_matrix(n))
        assert kernel_classes(alg) == []
    single = LefschetzAlgebra.from_intersection(4, LaurentMatrix.from_rows([[1 - q]]))
    assert kernel_classes(single) == []


def test_self_pairing_values():
    alg = band_algebra(2, 3, 4)
    h = KClass([1, 1, 1, 1, 1])
    assert self_pairing(alg, h) == 6 + 6 * q
    assert self_pairing(alg, KClass.zero(5)) == 0
    rng = random.Random(3)
    for k in (-2, 1, 3):
        assert self_pairing(alg, h.scale(q**k)) == self_pairing(alg, h)
    for _ in range(10):
        l = rand_kclass(rng, 5)
        assert self_pairing(alg, l.scale(-1)) == self_pairing(alg, l)


def test_sphere_test_band_families_obstructed():
    for a, b in ((1, 2), (2, 3), (2, 5), (3, 4)):
        for n in (3, 4):
            result = sphere_test(band_algebra(a, b, n))
            assert result.verdict is Verdict.OBSTRUCTED
            assert result.witness is None


def test_sphere_test_full_rank_obstructed():
    for n in (3, 4):
        alg = LefschetzAlgebra.from_intersection(n, mirror_p2_matrix(n))
        result = sphere_test(alg)
        assert result.verdict is Verdict.OBSTRUCTED
        assert result.branch == "kernel rank 0"


def test_sphere_test_positive_control():
    for dim in (3, 4):
        alg = positive_control(dim)
        assert kernel_classes(alg) == [KClass([1, -1])]
        result = sphere_test(alg)
        assert result.verdict is Verdict.NOT_OBSTRUCTED
        f = result.witness
        h = kernel_classes(alg)[0]
        assert f.star() * f * self_pairing(alg, h) == spherical_value(dim)


def test_sphere_test_zero_pairing_branch():
    # A circulant example in odd parity: the kernel is generated by
    # (1, 1, 1), which is isotropic for this Seifert form.
    seifert = LaurentMatrix.from_rows(
        [[1, q - 2, 1 - 2 * q], [0, 1, q - 2], [0, 0, 1]]
    )
    alg = LefschetzAlgebra.from_seifert(3, seifert)
    assert kernel_classes(alg) == [KClass([1, 1, 1])]
    assert self_pairing(alg, KClass([1, 1, 1])).is_zero()
    result = sphere_test(alg)
    assert result.verdict is Verdict.OBSTRUCTED
    assert "zero" in result.branch


def test_sphere_test_span_branch():
    # Rank-one kernel whose generator has self-pairing of span 3; no
    # star(f) f can narrow the window back to a single step.
    seifert = LaurentMatrix.from_rows([[1, q, 1], [0, 1, 1 + q**2], [0, 0, 1]])
    alg = LefschetzAlgebra.from_seifert(3, seifert)
    (h,) = kernel_classes(alg)
    assert self_pairing(alg, h).span() == 3
    result = sphere_test(alg)
    assert result.verdict is Verdict.OBSTRUCTED
    assert "span" in result.branch


def test_sphere_test_square_equation_branch():
    result = sphere_test(band_algebra(2, 3, 4))
    assert result.verdict is Verdict.OBSTRUCTED
    assert "square" in result.branch


def test_sphere_test_inconclusive_on_rank_two_kernel():
    base = positive_control(3)
    doubled = LaurentMatrix.from_rows(
        [
            [1, 1 + q, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 1 + q],
            [0, 0, 0, 1],
        ]
    )
    alg = LefschetzAlgebra.from_seifert(3, doubled)
    assert len(kernel_classes(alg)) == 2
    result = sphere_test(alg)
    assert result.verdict is Verdict.INCONCLUSIVE
    assert result.reason is not None
    assert base.dim == alg.dim


def test_nonzero_primitive_certificate_examples():
    assert nonzero_primitive_certificate(1 - q) == (True, 1)
    assert nonzero_primitive_certificate(-(q**-1) * (1 - q) ** 2) == (False, 0)
    assert nonzero_primitive_certificate(1 + q) == (True, 1)


def test_nonzero_primitive_certificate_unit_invariance():
    rng = random.Random(7)
    alg = band_algebra(2, 3, 3)
    for _ in range(20):
        l = rand_kclass(rng, 5)
        p = self_pairing(alg, l)
        for k in (-2, 0, 1):
            for sign in (1, -1):
                scaled = self_pairing(alg, l.scale(LaurentPoly.monomial(sign, k)))
                assert nonzero_primitive_certificate(scaled) == nonzero_primitive_certificate(p)


def test_betti_lower_bound_examples():
    assert betti_lower_bound(2 * 3 * (1 + q)) == 12
    assert betti_lower_bound(spherical_value(3)) == 2
    assert betti_lower_bound(spherical_value(4)) == 2
    assert betti_lower_bound(LaurentPoly.zero()) == 0


def test_betti_lower_bound_dominates_euler_characteristic():
    rng = random.Random(11)
    alg = band_algebra(2, 3, 4)
    for _ in range(30):
        l = rand_kclass(rng, 5)
        p = self_pairing(alg, l)
        assert betti_lower_bound(p) >= abs(p.eval_at_one())


def block_diagonal_control() -> tuple[LefschetzAlgebra, list[KClass]]:
    doubled = LaurentMatrix.from_rows(
        [
            [1, 1 + q, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 1 + q],
            [0, 0, 0, 1],
        ]
    )
    alg = LefschetzAlgebra.from_seifert(3, doubled)
    return alg, [KClass([1, -1, 0, 0]), KClass([0, 0, 1, -1])]


def test_independence_certificate_accepts_orthogonal_family():
    alg, classes = block_diagonal_control()
    assert independence_certificate(alg, classes) is True
    assert independence_certificate(alg, classes[:1]) is True


def test_independence_certificate_rejects_duplicates():
    alg, classes = block_diagonal_control()
    with pytest.raises(HypothesisError):
        independence_certificate(alg, [classes[0], classes[0]])


def test_independence_certificate_requires_odd_parity():
    alg = positive_control(4)
    with pytest.raises(HypothesisError):
        independence_certificate(alg, kernel_classes(alg))


def test_kernel_self_pairings_satisfy_hermitian_window():
    # For l in the kernel, S l = (-1)^n q S* l, so the self-pairing p obeys
    # p = (-1)^n q star(p); its exponent window is symmetric about 1/2.
    rng = random.Random(11)
    for a, b in ((2, 3), (1, 2)):
        for n in (3, 4):
            alg = band_algebra(a, b, n)
            (h,) = kernel_classes(alg)
            sign = alg.parity_sign
            for _ in range(15):
                f = rand_kclass(rng, 1)[0]
                p = self_pairing(alg, h.scale(f))
                assert p == LaurentPoly.monomial(sign, 1) * p.star()
                if not p.is_zero():
                    assert p.valuation() + p.degree() == 1


def test_vanishing_reduction_forces_divisible_self_pairing():
    # A class whose q = 1 reduction vanishes is (1 - q) times another
    # class, so its self-pairing gains a factor (1 - 1/q)(1 - q): exactly
    # the situation the nonzero certificate detects.
    rng = random.Random(13)
    alg = band_algebra(2, 3, 3)
    for _ in range(30):
        x = rand_kclass(rng, 5)
        l = x.scale(1 - q)
        p = self_pairing(alg, l)
        assert p.vanishing_order_at_one() >= 2
        nonzero, _ = nonzero_primitive_certificate(p)
        assert nonzero is False


def test_independence_certificate_is_sound():
    from fractions import Fraction

    from oracles import fraction_rank

    alg, classes = block_diagonal_control()
    assert independence_certificate(alg, classes)
    reductions = [[Fraction(x) for x in c.eval_at_one()] for c in classes]
    assert fraction_rank(reductions) == len(classes)


def test_sphere_verdict_invariant_under_weight_and_grading_moves():
    from qlefschetz.moves import rescale_object, shift_object

    for dim in (3, 4):
        control = positive_control(dim)
        for k in (0, 1):
            assert sphere_test(rescale_object(control, k, 2)).verdict is (
                Verdict.NOT_OBSTRUCTED
            )
            assert sphere_test(shift_object(control, k)).verdict is (
                Verdict.NOT_OBSTRUCTED
            )
    for n in (3, 4):
        moved = rescale_object(shift_object(band_algebra(2, 3, n), 2), 0, -1)
        assert sphere_test(moved).verdict is Verdict.OBSTRUCTED


def test_certificate_gcd_uses_both_derivative_and_value():
    # p(1) = 4 and p'(1) = 6 share a factor of 2: no primitivity certificate.
    p = 2 * (1 + q) + (1 - q) ** 2
    assert p.eval_at_one() == 4
    assert p.derivative_at_one() == 2
    assert nonzero_primitive_certificate(p) == (True, 2)
    assert math.gcd(4, 2) == 2


def test_a_rank_3_basis_need_not_generate_the_integral_kernel():
    """
    kernel_classes returns a basis over Q(q). Over the Milnor fibre of
    milnor_ar(2, 3), this 5x5 total space has a kernel of rank 3 whose
    second and third vectors have the non-unit free entries
    +-(q - 1)(1 + q^2). u = (q^-2 v2 + v3) / (1 + q^2) is integral and in
    the kernel, but its free entry q^-1 - q^-2 at v2's free column is no
    multiple of v2's, so u is outside the span over Z[q, q^-1].
    """
    fibre, spheres = milnor_ar(2, 3)
    words = ["t3 t1 t2", "t2 t3^-1 t2^-1", "", "", "t1 t2^-1"]
    specs = [(TwistWord.parse(w), seed) for w, seed in zip(words, [2, 2, 1, 0, 1])]
    alg = induced_total_space(fibre, specs, spheres)
    b = alg.intersection
    v1, v2, v3 = kernel_classes(alg)
    free = [2, 3, 4]
    assert [[v[j] for j in free] for v in (v1, v2, v3)] == [
        [q, 0, 0],
        [0, (q - 1) * (1 + q**2), 0],
        [0, 0, -(q - 1) * (1 + q**2)],
    ]
    u = KClass(c.exact_div(1 + q**2) for c in (v2.scale(q**-2) + v3).coords)
    assert (b @ u).is_zero()
    assert [u[j] for j in free] == [0, q**-1 - q**-2, 1 - q]
    with pytest.raises(ExactDivisionError):
        u[3].exact_div(v2[3])
