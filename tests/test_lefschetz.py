"""The fibration datum: constructors, pairing, monodromy, double cover."""

from __future__ import annotations

import random

import pytest

from qlefschetz.laurent import LaurentPoly, q
from qlefschetz.lefschetz import ConsistencyError, LefschetzAlgebra
from qlefschetz.matrix import KClass, LaurentMatrix

from oracles import band_matrix, monodromy_pairing_matrix, rand_kclass, rand_poly


def rand_algebra(rng: random.Random, m: int, dim: int) -> LefschetzAlgebra:
    rows = [
        [1 if i == j else rand_poly(rng) if i < j else 0 for j in range(m)]
        for i in range(m)
    ]
    return LefschetzAlgebra.from_seifert(dim, LaurentMatrix.from_rows(rows))


def test_from_intersection_single_object():
    alg = LefschetzAlgebra.from_intersection(4, LaurentMatrix.from_rows([[1 - q]]))
    assert alg.seifert == LaurentMatrix.identity(1)
    odd = LefschetzAlgebra.from_intersection(3, LaurentMatrix.from_rows([[1 + q]]))
    assert odd.seifert == LaurentMatrix.identity(1)


def test_from_intersection_band_example():
    alg = LefschetzAlgebra.from_intersection(4, band_matrix(2, 3, 4))
    assert list(alg.seifert.row(0)) == [
        LaurentPoly.one(),
        1 + q,
        q + 0,
        LaurentPoly.coerce(-1),
        -1 - q,
    ]
    assert alg.seifert.eval_at_one()[0] == [1, 2, 1, -1, -2]


def test_from_intersection_rejects_wrong_parity():
    with pytest.raises(ConsistencyError) as info:
        LefschetzAlgebra.from_intersection(3, LaurentMatrix.from_rows([[1 - q]]))
    assert info.value.position == (0, 0)
    bad = LaurentMatrix.from_rows([[1 - q, 1 + q], [0, 1 - q]])
    with pytest.raises(ConsistencyError) as info:
        LefschetzAlgebra.from_intersection(4, bad)
    assert info.value.position == (1, 0)


def test_from_seifert_examples():
    alg = LefschetzAlgebra.from_seifert(4, LaurentMatrix.identity(2))
    assert alg.intersection == LaurentMatrix.diagonal([1 - q, 1 - q])
    # 2x2 case with every off-diagonal Seifert entry 1 + q and even parity.
    mukai = LaurentMatrix.from_rows([[1, 1 + q], [0, 1]])
    alg = LefschetzAlgebra.from_seifert(4, mukai)
    assert alg.intersection == LaurentMatrix.from_rows(
        [[1 - q, 1 + q], [-1 - q, 1 - q]]
    )


def test_constructor_roundtrips():
    rng = random.Random(5)
    for dim in (3, 4):
        for _ in range(20):
            alg = rand_algebra(rng, rng.randint(1, 5), dim)
            again = LefschetzAlgebra.from_intersection(dim, alg.intersection)
            assert again.seifert == alg.seifert
            assert LefschetzAlgebra.from_seifert(dim, again.seifert).intersection == alg.intersection


def test_intersection_diagonal_is_spherical_value():
    rng = random.Random(13)
    for dim in (3, 4):
        alg = rand_algebra(rng, 4, dim)
        for k in range(4):
            assert alg.intersection[k, k] == 1 - alg.parity_sign * q


def test_pairing_examples():
    alg = LefschetzAlgebra.from_intersection(4, band_matrix(2, 3, 4))
    h = KClass([1, 1, 1, 1, 1])
    assert alg.pairing(h, h) == 6 + 6 * q
    for i in range(5):
        for j in range(5):
            assert alg.pairing(
                KClass.basis_vector(5, i), KClass.basis_vector(5, j)
            ) == alg.seifert[i, j]


def test_pairing_hermitian_law():
    rng = random.Random(17)
    for dim in (3, 4):
        alg = rand_algebra(rng, 3, dim)
        for _ in range(30):
            h0, h1 = rand_kclass(rng, 3), rand_kclass(rng, 3)
            f, g = rand_poly(rng), rand_poly(rng)
            assert alg.pairing(h0.scale(f), h1.scale(g)) == f.star() * g * alg.pairing(h0, h1)
            k0, k1 = rng.randint(-2, 2), rng.randint(-2, 2)
            assert alg.pairing(
                h0.scale(q**k0), h1.scale(q**k1)
            ) == q ** (k1 - k0) * alg.pairing(h0, h1)


def test_monodromy_trivial_cases():
    even = LefschetzAlgebra.from_seifert(4, LaurentMatrix.identity(1))
    assert even.monodromy() == LaurentMatrix.from_rows([[q]])
    assert monodromy_pairing_matrix(even)[0, 0] == q**-1
    odd = LefschetzAlgebra.from_seifert(3, LaurentMatrix.identity(1))
    assert monodromy_pairing_matrix(odd)[0, 0] == -(q**-1)


def test_monodromy_defining_property():
    rng = random.Random(19)
    for dim in (3, 4):
        for _ in range(10):
            m = rng.randint(1, 4)
            alg = rand_algebra(rng, m, dim)
            n_q = alg.monodromy()
            closed = monodromy_pairing_matrix(alg)
            sq = LaurentPoly.monomial(alg.parity_sign, 1)
            for i in range(m):
                for j in range(m):
                    e_i, e_j = KClass.basis_vector(m, i), KClass.basis_vector(m, j)
                    assert alg.pairing(e_i, n_q @ e_j) == sq * alg.pairing(e_j, e_i).star()
                    assert closed[i, j] == alg.pairing(n_q @ e_i, e_j)


def test_monodromy_determinant():
    rng = random.Random(23)
    for dim in (3, 4):
        for m in (1, 2, 3):
            alg = rand_algebra(rng, m, dim)
            expected = LaurentPoly.monomial(alg.parity_sign**m, m)
            assert alg.monodromy().det() == expected


def test_specialize_classical_properties():
    rng = random.Random(29)
    alg = LefschetzAlgebra.from_seifert(4, LaurentMatrix.identity(3))
    _, _, n1 = alg.specialize_classical()
    assert n1 == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for dim in (3, 4):
        alg = rand_algebra(rng, 3, dim)
        s1, b1, n1 = alg.specialize_classical()
        sign = alg.parity_sign
        for _ in range(20):
            v = [rng.randint(-4, 4) for _ in range(3)]
            w = [rng.randint(-4, 4) for _ in range(3)]
            nw = [sum(n1[i][j] * w[j] for j in range(3)) for i in range(3)]
            left = sum(v[i] * s1[i][j] * nw[j] for i in range(3) for j in range(3))
            right = sign * sum(w[i] * s1[i][j] * v[j] for i in range(3) for j in range(3))
            assert left == right
        # The q = 1 intersection form is the symmetrized Seifert form.
        for i in range(3):
            for j in range(3):
                assert b1[i][j] == s1[i][j] - sign * s1[j][i]


def test_charpoly_matrix_examples():
    even = LefschetzAlgebra.from_seifert(4, LaurentMatrix.identity(2))
    assert even.charpoly_matrix() == LaurentMatrix.diagonal([1 - q, 1 - q])
    odd = LefschetzAlgebra.from_seifert(3, LaurentMatrix.identity(1))
    assert odd.charpoly_matrix() == LaurentMatrix.from_rows([[1 + q]])


def test_charpoly_matrix_is_characteristic_polynomial():
    rng = random.Random(31)
    for dim in (3, 4):
        for _ in range(10):
            m = rng.randint(1, 4)
            alg = rand_algebra(rng, m, dim)
            _, _, n1 = alg.specialize_classical()
            char_matrix = LaurentMatrix.from_rows(
                [
                    [(1 if i == j else 0) - q * n1[i][j] for j in range(m)]
                    for i in range(m)
                ]
            )
            assert alg.charpoly_matrix().det() == char_matrix.det()


def test_monodromy_specializes_to_classical():
    rng = random.Random(43)
    for dim in (3, 4):
        for _ in range(10):
            m = rng.randint(1, 4)
            alg = rand_algebra(rng, m, dim)
            _, _, n1 = alg.specialize_classical()
            assert alg.monodromy().eval_at_one() == n1


def test_double_cover_block_form():
    alg = LefschetzAlgebra.from_intersection(4, LaurentMatrix.from_rows([[1 - q]]))
    cover, matching = alg.double_cover()
    assert cover.seifert == LaurentMatrix.from_rows([[1, 1 - q], [0, 1]])
    assert matching == [KClass([-1, 1])]
    assert cover.dim == alg.dim


def test_double_cover_matching_spheres_and_embedding():
    rng = random.Random(37)
    for dim in (3, 4):
        for _ in range(8):
            m = rng.randint(1, 4)
            alg = rand_algebra(rng, m, dim)
            cover, matching = alg.double_cover()
            target = 1 + LaurentPoly.monomial(alg.parity_sign, 1)
            for s in matching:
                assert cover.pairing(s, s) == target
            # Classes supported on the second copy pair exactly as downstairs.
            for _ in range(10):
                l0, l1 = rand_kclass(rng, m), rand_kclass(rng, m)
                lift0 = KClass([LaurentPoly.zero()] * m + list(l0.coords))
                lift1 = KClass([LaurentPoly.zero()] * m + list(l1.coords))
                assert cover.pairing(lift0, lift1) == alg.pairing(l0, l1)


def test_double_cover_matching_gram_is_next_level_datum():
    # The Gram matrix of the matching spheres is 2S - B, which is a valid
    # intersection matrix one dimension up.
    rng = random.Random(41)
    for dim in (3, 4):
        alg = rand_algebra(rng, 3, dim)
        cover, matching = alg.double_cover()
        gram = LaurentMatrix.from_rows(
            [[cover.pairing(si, sj) for sj in matching] for si in matching]
        )
        lifted = LefschetzAlgebra.from_intersection(dim + 1, gram)
        assert lifted.seifert == alg.seifert
