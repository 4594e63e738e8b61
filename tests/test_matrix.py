"""Exact linear algebra: products, star-transpose, elimination, nullspaces."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

import qlefschetz.matrix as matrix_module
from qlefschetz.laurent import LaurentPoly, q
from qlefschetz.matrix import KClass, LaurentMatrix, gram_pairing

from oracles import (
    CLASSICAL_23_INTERSECTION,
    cofactor_det,
    column_dot_matmul,
    evaluate_matrix,
    fraction_det,
    fraction_rank,
    rand_kclass,
    rand_matrix,
    rand_poly,
)


def test_mat_mul_examples():
    rng = random.Random(3)
    for _ in range(20):
        b = rand_matrix(rng, 3, 3)
        assert LaurentMatrix.identity(3) @ b == b
    u = LaurentMatrix.from_rows([[1, 1 + q], [0, 1]])
    v = LaurentMatrix.from_rows([[1, -1 - q], [0, 1]])
    assert u @ v == LaurentMatrix.identity(2)


def test_mat_mul_kills_kernel_vector_of_classical_band():
    b1 = LaurentMatrix.from_rows(CLASSICAL_23_INTERSECTION)
    h = KClass([1, 1, 1, 1, 1])
    assert (b1 @ h).is_zero()


def test_mat_mul_shape_mismatch():
    with pytest.raises(ValueError):
        rand_matrix(random.Random(0), 2, 3) @ rand_matrix(random.Random(1), 2, 2)


def test_mat_mul_by_a_non_matrix_is_a_type_error():
    m = LaurentMatrix.identity(1)
    for other in (3, q, [[1]]):
        with pytest.raises(TypeError):
            m @ other


def test_sum_and_difference_with_a_foreign_operand_are_type_errors():
    m = LaurentMatrix.identity(2)
    v = KClass([1])
    for other in (3, q, [[1]]):
        with pytest.raises(TypeError):
            m + other
        with pytest.raises(TypeError):
            m - other
        with pytest.raises(TypeError):
            v + other
        with pytest.raises(TypeError):
            v - other
    assert LaurentMatrix.__add__(m, 3) is NotImplemented
    assert LaurentMatrix.__sub__(m, [[1]]) is NotImplemented
    assert KClass.__add__(v, 3) is NotImplemented
    assert KClass.__sub__(v, q) is NotImplemented
    # The shape and length checks still speak for operands of the right kind.
    with pytest.raises(ValueError, match="shapes differ"):
        m + LaurentMatrix.identity(3)
    with pytest.raises(ValueError, match="shapes differ"):
        m - LaurentMatrix.identity(1)
    with pytest.raises(ValueError, match="different lengths"):
        v + KClass([1, 2])
    with pytest.raises(ValueError, match="different lengths"):
        v - KClass([1, 2])


def test_mat_mul_multiplies_each_pair_of_nonzero_factors_once(monkeypatch):
    """The kernel is handed each (A[i, l], B[l, j]) with both factors
    nonzero exactly once, and no pair with a zero factor."""
    rng = random.Random(5)
    a, b = rand_matrix(rng, 4, 5), rand_matrix(rng, 5, 3)
    expected = Counter(
        (a[i, l], b[l, j]) for i in range(4) for l in range(5) for j in range(3)
        if a[i, l] and b[l, j]
    )
    assert 0 < sum(expected.values()) < 4 * 5 * 3
    pairs = []
    kernel = matrix_module._products

    def recording(ps):
        ps = list(ps)
        pairs.extend(ps)
        return kernel(ps)

    monkeypatch.setattr(matrix_module, "_products", recording)
    product = a @ b
    monkeypatch.undo()
    assert Counter(pairs) == expected
    assert product == column_dot_matmul(a, b)


def test_bools_are_not_coerced_into_entries():
    with pytest.raises(TypeError):
        LaurentMatrix.from_rows([[True, False]])
    with pytest.raises(TypeError):
        KClass([True])
    with pytest.raises(TypeError):
        LaurentMatrix.identity(2).scale(True)


def test_star_transpose():
    assert LaurentMatrix.identity(4).star_transpose() == LaurentMatrix.identity(4)
    u = LaurentMatrix.from_rows([[1, 1 + q], [0, 1]])
    assert u.star_transpose() == LaurentMatrix.from_rows([[1, 0], [1 + q**-1, 1]])
    rng = random.Random(11)
    for _ in range(50):
        a = rand_matrix(rng, 3, 2)
        assert a.star_transpose().star_transpose() == a
        b = rand_matrix(rng, 2, 3)
        assert (a @ b).star_transpose() == b.star_transpose() @ a.star_transpose()


def test_det_identity_and_empty():
    assert LaurentMatrix.identity(5).det() == 1
    assert LaurentMatrix(0, 0, ()).det() == 1
    assert LaurentMatrix(0, 0, ()).rank() == 0


def test_det_of_unitriangular_is_one():
    rng = random.Random(19)
    for _ in range(30):
        m = rng.randint(1, 4)
        rows = [
            [1 if i == j else rand_poly(rng) if i < j else 0 for j in range(m)]
            for i in range(m)
        ]
        assert LaurentMatrix.from_rows(rows).det() == 1


def test_det_against_cofactor_expansion():
    rng = random.Random(29)
    for _ in range(60):
        m = rng.randint(0, 4)
        a = rand_matrix(rng, m, m)
        assert a.det() == cofactor_det(a)


def test_det_is_multiplicative():
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randint(1, 4)
        a, b = rand_matrix(rng, m, m), rand_matrix(rng, m, m)
        assert (a @ b).det() == a.det() * b.det()


def test_det_of_star_transpose():
    rng = random.Random(41)
    for _ in range(40):
        m = rng.randint(1, 4)
        a = rand_matrix(rng, m, m)
        assert a.star_transpose().det() == a.det().star()


def test_det_rational_evaluation_oracle():
    rng = random.Random(43)
    for _ in range(40):
        m = rng.randint(1, 5)
        a = rand_matrix(rng, m, m)
        assert a.det().evaluate(2) == fraction_det(evaluate_matrix(a, 2))


def test_unitriangular_inverse():
    assert LaurentMatrix.identity(3).unitriangular_inverse() == LaurentMatrix.identity(3)
    u = LaurentMatrix.from_rows([[1, 1 + q], [0, 1]])
    assert u.unitriangular_inverse() == LaurentMatrix.from_rows([[1, -1 - q], [0, 1]])
    rng = random.Random(47)
    for _ in range(40):
        m = rng.randint(1, 5)
        rows = [
            [1 if i == j else rand_poly(rng) if i < j else 0 for j in range(m)]
            for i in range(m)
        ]
        a = LaurentMatrix.from_rows(rows)
        assert a @ a.unitriangular_inverse() == LaurentMatrix.identity(m)
        assert a.unitriangular_inverse() @ a == LaurentMatrix.identity(m)
    with pytest.raises(ValueError):
        LaurentMatrix.from_rows([[2, 0], [0, 1]]).unitriangular_inverse()


def test_cone_class_is_the_difference_of_basis_vectors():
    for m, i, j in ((2, 0, 1), (2, 1, 0), (5, 4, 0), (6, 1, 4)):
        assert KClass.cone(m, i, j) == KClass.basis_vector(m, j) - KClass.basis_vector(m, i)


def test_nullspace_of_zero_matrix():
    assert LaurentMatrix.from_rows([[0, 0], [0, 0]]).nullspace() == [
        KClass([1, 0]),
        KClass([0, 1]),
    ]


def test_nullspace_exactness_and_rank_nullity():
    rng = random.Random(53)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, rows, cols)
        basis = a.nullspace()
        assert a.rank() + len(basis) == cols
        for v in basis:
            assert (a @ v).is_zero()
            nonzero = [c for c in v.coords if not c.is_zero()]
            # Primitive: unit content, first nonzero entry anchored at
            # exponent zero with a positive coefficient there.
            from qlefschetz.laurent import gcd_many

            assert gcd_many(nonzero) == 1
            assert nonzero[0].valuation() == 0
            assert nonzero[0][0] > 0


def test_nullspace_removes_polynomial_content():
    scaled = LaurentMatrix.from_rows([[1 - q, q - 1], [0, 0]])
    assert scaled.nullspace() == [KClass([1, 1])]


def test_rank_examples():
    assert LaurentMatrix.identity(3).rank() == 3
    rng = random.Random(59)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, rows, cols)
        # Specializing q can only drop rank.
        assert a.rank() >= fraction_rank(evaluate_matrix(a, 1))


def test_rank_specialization_oracle_at_random_point():
    # Rank over Q(q) equals the max over evaluation points; two points
    # suffice statistically for these small matrices.
    rng = random.Random(61)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, rows, cols)
        evaluated = max(
            fraction_rank(evaluate_matrix(a, x)) for x in (2, 3, Fraction(5, 7))
        )
        assert a.rank() == evaluated


def test_gram_pairing_sesquilinearity():
    rng = random.Random(67)
    for _ in range(40):
        m = rng.randint(1, 4)
        gram = rand_matrix(rng, m, m)
        h0, h1 = rand_kclass(rng, m), rand_kclass(rng, m)
        f, g = rand_poly(rng), rand_poly(rng)
        assert gram_pairing(gram, h0.scale(f), h1.scale(g)) == f.star() * g * gram_pairing(
            gram, h0, h1
        )
        i, j = rng.randrange(m), rng.randrange(m)
        assert (
            gram_pairing(gram, KClass.basis_vector(m, i), KClass.basis_vector(m, j))
            == gram[i, j]
        )


def test_kclass_canonical_primitive():
    v = KClass([LaurentPoly.zero(), -2 * q + 2 * q**2, 4 * q**3])
    assert v.canonical_primitive() == KClass([0, 1 - q, -2 * q**2])
