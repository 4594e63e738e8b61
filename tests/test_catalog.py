"""The worked families: sphere chains, band matrices, the mirror plane."""

from __future__ import annotations

import math
import random
import re

import pytest

from qlefschetz.catalog import induced_total_space, milnor_ar, mirror_p2, xab
from qlefschetz.laurent import LaurentPoly, q
from qlefschetz.lefschetz import ConsistencyError
from qlefschetz.matrix import KClass, LaurentMatrix, gram_pairing
from qlefschetz.moves import TwistWord

from oracles import (
    band_matrix,
    classical_band_entry,
    counted_products,
    deformed_sphere_pairing,
    mirror_p2_det_consistent,
    mirror_p2_det_factors,
    mirror_p2_matrix,
    sign_of,
    sphere_sum_windows,
)

TESTED_AB = ((1, 2), (2, 3), (2, 5), (3, 4))


def test_milnor_mukai_shape():
    for n in (3, 4):
        fibre, _ = milnor_ar(4, n)
        upper = 1 + LaurentPoly.monomial(sign_of(n), 1)
        for i in range(5):
            for j in range(5):
                expected = upper if i < j else 1 if i == j else 0
                assert fibre.seifert[i, j] == LaurentPoly.coerce(expected)
        # The fibre is the datum one dimension down, and every entry of its
        # intersection matrix is 1 + (-1)^n q.
        for r in (1, 2, 4, 5):
            fibre, _ = milnor_ar(r, n)
            assert fibre.dim == n - 1
            assert set(fibre.intersection.entries) == {upper}
    with pytest.raises(ValueError):
        milnor_ar(0, 3)


def test_milnor_sphere_pairings_match_cyclic_chain():
    for r in range(2, 9):
        for n in (3, 4):
            fibre, spheres = milnor_ar(r, n)
            for i in range(r + 1):
                for j in range(r + 1):
                    assert gram_pairing(
                        fibre.seifert, spheres[i], spheres[j]
                    ) == deformed_sphere_pairing(r, n, i + 1, j + 1)


def test_milnor_specific_values():
    even, s = milnor_ar(4, 4)
    assert gram_pairing(even.seifert, s[0], s[0]) == 1 - q
    assert gram_pairing(even.seifert, s[0], s[1]) == q + 0
    assert gram_pairing(even.seifert, s[1], s[0]) == LaurentPoly.coerce(-1)
    tiny, t = milnor_ar(1, 3)
    assert gram_pairing(tiny.seifert, t[0], t[0]) == 1 + q


def test_xab_matches_published_band_matrix():
    for a, b in TESTED_AB:
        for n in (3, 4):
            alg = xab(a, b, n)
            assert alg.intersection == band_matrix(a, b, n)
            for k in range(a + b):
                assert alg.intersection[k, k] == 1 - sign_of(n) * q
            assert alg.seifert @ alg.seifert.unitriangular_inverse() == (
                LaurentMatrix.identity(a + b)
            )


def test_xab_windows_agree_with_the_sphere_sums():
    # xab telescopes each window of spheres to e_(i+a) - e_i.
    for n in (3, 4):
        for b in range(2, 20):
            for a in range(1, min(b, 21 - b)):
                if math.gcd(a, b) == 1:
                    fibre, _ = milnor_ar(a + b - 1, n)
                    expected = induced_total_space(fibre, sphere_sum_windows(a, b, n))
                    assert xab(a, b, n) == expected, (a, b, n)


def test_xab_rank_and_classical_rank_drop():
    from oracles import evaluate_matrix, fraction_rank

    assert xab(2, 3, 4).intersection.rank() == 4
    for a, b in TESTED_AB:
        for n in (3, 4):
            alg = xab(a, b, n)
            q_rank = alg.intersection.rank()
            classical_rank = fraction_rank(evaluate_matrix(alg.intersection, 1))
            assert q_rank == a + b - 1
            # For these pairs a + b is odd, so the classical skew or
            # symmetric form has the same one-dimensional kernel.
            assert classical_rank == q_rank
    # With a and b both odd and n even, the classical kernel gains the
    # alternating generator and specialization strictly drops the rank;
    # the exact kernel stays one-dimensional.
    both_odd = xab(1, 3, 4)
    assert both_odd.intersection.rank() == 3
    assert fraction_rank(evaluate_matrix(both_odd.intersection, 1)) == 2
    assert both_odd.intersection.nullspace() == [KClass([1, 1, 1, 1])]
    every_other = KClass([1, 0, 1, 0])
    classical = LaurentMatrix.from_rows(both_odd.intersection.eval_at_one())
    assert (classical @ every_other).is_zero()
    assert not (both_odd.intersection @ every_other).is_zero()


def test_xab_monodromy_pairing_corner():
    alg = xab(2, 3, 4)
    n_q = alg.monodromy()
    e1 = KClass.basis_vector(5, 0)
    assert alg.pairing(e1, n_q @ e1) == q + 0
    assert n_q.det() == q**5


def test_xab_is_cyclic_band():
    for a, b in TESTED_AB:
        m = a + b
        for n in (3, 4):
            alg = xab(a, b, n)
            for i in range(m):
                for j in range(m):
                    assert alg.intersection[i, j] == alg.intersection[
                        (i + 1) % m, (j + 1) % m
                    ]


def test_xab_classical_specialization():
    for a, b in TESTED_AB:
        for n in (3, 4):
            _, b1, _ = xab(a, b, n).specialize_classical()
            for i in range(a + b):
                for j in range(a + b):
                    assert b1[i][j] == classical_band_entry(a, b, n, i + 1, j + 1)


def test_xab_kernel_vector():
    for a, b in TESTED_AB:
        for n in (3, 4):
            alg = xab(a, b, n)
            assert (alg.intersection @ KClass([1] * (a + b))).is_zero()


def test_xab_input_validation():
    with pytest.raises(ValueError):
        xab(2, 2, 4)
    with pytest.raises(ValueError):
        xab(2, 4, 4)
    with pytest.raises(ValueError):
        xab(3, 2, 4)
    with pytest.raises(ValueError):
        xab(1, 2, 2)


def test_mirror_p2_matches_published_matrix():
    for n in (3, 4):
        alg = mirror_p2(n)
        assert alg.intersection == mirror_p2_matrix(n)
    even = mirror_p2(4)
    assert even.intersection[0, 1] == -(q**-1) - 1 - q
    assert even.intersection[0, 0] == 1 - q


def test_mirror_p2_determinant_and_kernel():
    # The published factorization matches the published matrix exactly in
    # even parity; in odd parity the matrix determinant is its negative
    # (see criterion 04 in the acceptance suite). Either way it is nonzero,
    # so the kernel is trivial.
    for n in (3, 4):
        alg = mirror_p2(n)
        det = alg.intersection.det()
        assert det == sign_of(n) * mirror_p2_det_factors(n)
        assert det == mirror_p2_det_consistent(n)
        assert not det.is_zero()
        assert alg.intersection.nullspace() == []
        assert alg.intersection.rank() == 3


def test_induced_total_space_reproduces_generators():
    for n in (3, 4):
        fibre, spheres = milnor_ar(4, n)
        windows = [spheres[i] + spheres[(i + 1) % 5] for i in range(5)]
        assert induced_total_space(fibre, windows) == xab(2, 3, n)
        words = [
            (TwistWord.parse(word), seed)
            for word, seed in (("t2", 0), ("t2^-1 t1", 3), ("t3 t1", 1))
        ]
        fibre, spheres = milnor_ar(3, n)
        assert induced_total_space(fibre, words, spheres) == mirror_p2(n)


def test_induced_total_space_from_double_cover_matching_classes():
    rng = random.Random(5)
    for n in (3, 4):
        alg = xab(1, 2, n)
        cover, matching = alg.double_cover()
        lifted = induced_total_space(cover, matching)
        target = 1 + LaurentPoly.monomial(sign_of(n), 1)
        for k in range(alg.size):
            assert lifted.intersection[k, k] == target
        assert lifted.seifert == alg.seifert
        assert rng is not None


def test_induced_total_space_rejects_non_spherical_class():
    # A raw thimble basis vector has self-pairing 1 rather than the
    # spherical value, so the induced matrix fails validation.
    fibre, spheres = milnor_ar(4, 4)
    windows = [spheres[i] + spheres[(i + 1) % 5] for i in range(5)]
    bad = [KClass.basis_vector(5, 0)] + windows[1:]
    with pytest.raises(ConsistencyError):
        induced_total_space(fibre, bad)


def test_twist_word_route_of_first_band_cycle():
    # The first vanishing cycle of the (2, b) families is the twist of the
    # first sphere along the second, whose class is the two-step window.
    for n in (3, 4):
        fibre, spheres = milnor_ar(4, n)
        spec = (TwistWord.parse("t2"), 0)
        direct = spheres[0] + spheres[1]
        windows = [spheres[i] + spheres[(i + 1) % 5] for i in range(5)]
        via_word = induced_total_space(fibre, [spec] + windows[1:], spheres)
        via_class = induced_total_space(fibre, [direct] + windows[1:])
        assert via_word == via_class == xab(2, 3, n)


def test_inducing_xab_hands_the_kernel_few_factor_pairs(monkeypatch):
    """
    The induction pairs the 40 windows of xab(11, 29, 4) as two sparse
    products, not as 40^2 pairings that each pass two full rows of 40.
    """
    pairs = counted_products(monkeypatch)
    alg = xab(11, 29, 4)
    monkeypatch.undo()
    m = alg.size
    assert 0 < sum(pairs) <= 4 * m * m
    assert alg.intersection == band_matrix(11, 29, 4)


@pytest.mark.parametrize("bad", [0, 2, 4])
def test_induced_total_space_names_a_class_of_wrong_length(bad):
    # The congruence R* G R states the length rule once, with the spec's
    # 1-based index; the twist-word specs around the bad vector resolve.
    fibre, spheres = milnor_ar(4, 4)
    specs = [(TwistWord.parse("t2"), i) for i in range(5)]
    specs[bad] = KClass([1, -1])
    message = f"class {bad + 1} has length 2, not the pairing matrix's 5"
    with pytest.raises(ValueError, match=re.escape(message)):
        induced_total_space(fibre, specs, spheres)


@pytest.mark.parametrize(
    "word, seed, message",
    [
        ("t2", 0, "class lengths 2, 5 do not fit a 5x5 pairing matrix"),
        ("t1", 1, "class lengths 5, 2 do not fit a 5x5 pairing matrix"),
        ("", 1, "class 1 has length 2, not the pairing matrix's 5"),
    ],
    ids=["twist-letter", "seed", "seed-of-empty-word"],
)
def test_induced_total_space_refuses_a_used_generator_of_wrong_length(word, seed, message):
    # A spec that uses the short generator 2, as a twist letter or as a
    # seed, is refused by the pairing; one that does not use it resolves.
    fibre, spheres = milnor_ar(4, 4)
    generators = list(spheres)
    generators[1] = KClass([1, -1])
    with pytest.raises(ValueError, match=re.escape(message)):
        induced_total_space(fibre, [(TwistWord.parse(word), seed)], generators)
    assert induced_total_space(fibre, [(TwistWord.parse("t1"), 0)], generators).size == 1
