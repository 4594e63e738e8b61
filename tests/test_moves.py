"""Hurwitz moves, weight and grading changes, and twists on classes."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qlefschetz.laurent as laurent_module
import qlefschetz.matrix as matrix_module
import qlefschetz.moves as moves_module
from qlefschetz.catalog import mirror_p2, xab
from qlefschetz.laurent import LaurentPoly, q
from qlefschetz.lefschetz import LefschetzAlgebra
from qlefschetz.matrix import KClass, LaurentMatrix, gram_pairing
from qlefschetz.moves import (
    TwistWord,
    _conjugate,
    apply_twist_word,
    dehn_twist_class,
    hurwitz_inverse_move,
    hurwitz_move,
    inverse_dehn_twist_class,
    rescale_object,
    shift_object,
)

from oracles import band_matrix, column_dot_matmul, moved_xab, rand_algebra, rand_kclass


def test_hurwitz_move_two_by_two():
    b = 1 + q
    alg = LefschetzAlgebra.from_seifert(4, LaurentMatrix.from_rows([[1, b], [0, 1]]))
    moved, c = hurwitz_move(alg, 0)
    assert c == LaurentMatrix.from_rows([[-b, 1], [1, 0]])
    assert moved.seifert == LaurentMatrix.from_rows([[1, -b.star()], [0, 1]])
    assert moved.seifert.det() == 1
    back, c_inv = hurwitz_inverse_move(moved, 0)
    assert back.seifert == alg.seifert
    assert c @ c_inv == LaurentMatrix.identity(2)


def test_hurwitz_moves_are_mutually_inverse():
    rng = random.Random(3)
    for dim in (3, 4):
        for _ in range(10):
            m = rng.randint(2, 5)
            alg = rand_algebra(rng, m, dim)
            for k in range(m - 1):
                moved, c = hurwitz_move(alg, k)
                back, c_inv = hurwitz_inverse_move(moved, k)
                assert back == alg
                assert c @ c_inv == LaurentMatrix.identity(m)
                other, _ = hurwitz_inverse_move(alg, k)
                forth, _ = hurwitz_move(other, k)
                assert forth == alg


def test_hurwitz_transition_columns_are_twist_images():
    # Column k of the transition matrix is the class of the twisted cycle
    # in old coordinates, and column k+1 is the old k-th cycle: the basis
    # move and the class-level twist tell one consistent story.
    rng = random.Random(5)
    for dim in (3, 4):
        alg = rand_algebra(rng, 4, dim)
        for k in range(3):
            _, c = hurwitz_move(alg, k)
            e_k = KClass.basis_vector(4, k)
            e_next = KClass.basis_vector(4, k + 1)
            twisted = dehn_twist_class(alg, e_k, e_next)
            assert KClass([c[i, k] for i in range(4)]) == twisted
            assert KClass([c[i, k + 1] for i in range(4)]) == e_k


def test_hurwitz_gram_transport():
    rng = random.Random(7)
    for dim in (3, 4):
        alg = rand_algebra(rng, 4, dim)
        for k in range(3):
            for move in (hurwitz_move, hurwitz_inverse_move):
                moved, c = move(alg, k)
                for _ in range(20):
                    h0, h1 = rand_kclass(rng, 4), rand_kclass(rng, 4)
                    assert moved.pairing(h0, h1) == alg.pairing(c @ h0, c @ h1)


def test_hurwitz_preserves_charpoly_determinant():
    alg = LefschetzAlgebra.from_intersection(4, band_matrix(2, 3, 4))
    reference = alg.charpoly_matrix().det()
    for k in range(4):
        moved, _ = hurwitz_move(alg, k)
        assert moved.charpoly_matrix().det() == reference


def test_move_position_bounds():
    alg = rand_algebra(random.Random(1), 3, 4)
    with pytest.raises(IndexError):
        hurwitz_move(alg, 2)
    with pytest.raises(IndexError):
        hurwitz_inverse_move(alg, -1)
    with pytest.raises(IndexError):
        rescale_object(alg, 3, 1)
    with pytest.raises(IndexError):
        shift_object(alg, -1)


def test_rescale_entries_and_invariants():
    alg = LefschetzAlgebra.from_intersection(4, band_matrix(2, 3, 4))
    assert rescale_object(alg, 1, 0) == alg
    shifted = rescale_object(alg, 0, 1)
    b = alg.intersection
    for j in range(5):
        if j == 0:
            assert shifted.intersection[0, 0] == b[0, 0]
        else:
            assert shifted.intersection[0, j] == q**-1 * b[0, j]
            assert shifted.intersection[j, 0] == q * b[j, 0]
    assert shifted.intersection.det() == b.det()
    # Specific entry: rescaling the first object sends the (1, 2) entry
    # 1 + q of the (2, 3) band matrix to q^-1 (1 + q).
    assert shifted.intersection[0, 1] == q**-1 * (1 + q)


def test_rescale_gram_transport():
    rng = random.Random(11)
    alg = rand_algebra(rng, 3, 3)
    shifted = rescale_object(alg, 2, -2)
    d = LaurentMatrix.diagonal([1, 1, LaurentPoly.monomial(1, -2)])
    for _ in range(20):
        h0, h1 = rand_kclass(rng, 3), rand_kclass(rng, 3)
        assert shifted.pairing(h0, h1) == alg.pairing(d @ h0, d @ h1)


def test_shift_entries_and_involution():
    alg = LefschetzAlgebra.from_intersection(4, band_matrix(2, 3, 4))
    flipped = shift_object(alg, 0)
    b = alg.intersection
    for j in range(5):
        if j == 0:
            assert flipped.intersection[0, 0] == b[0, 0]
        else:
            assert flipped.intersection[0, j] == -b[0, j]
            assert flipped.intersection[j, 0] == -b[j, 0]
    assert flipped.intersection[0, 1] == -(1 + q)
    assert shift_object(flipped, 0) == alg
    assert flipped.intersection.det() == b.det()
    e0 = KClass.basis_vector(5, 0)
    assert flipped.pairing(e0, e0) == alg.pairing(e0, e0)


# -- the braid group ------------------------------------------------------------
#
# hurwitz_move at k is the braid generator sigma_k acting on distinguished
# bases, hurwitz_inverse_move its inverse. Both the datum and the product of
# the transition matrices (first move leftmost) must obey the braid
# relations, and the full twist (sigma_0 ... sigma_{m-2})^m must give the
# datum back with total transition S^-1 S* = (-1)^n q^-1 N, N the monodromy.

braid_entries = st.one_of(
    st.just(0),
    st.builds(
        lambda val, coeffs: LaurentPoly((val + i, c) for i, c in enumerate(coeffs)),
        st.integers(-2, 1),
        st.lists(st.integers(-2, 2), min_size=1, max_size=3),
    ),
)


@st.composite
def unitriangular_algebras(draw, min_size):
    m = draw(st.integers(min_size, 6))
    dim = draw(st.sampled_from([3, 4]))
    rows = [
        [1 if i == j else draw(braid_entries) if i < j else 0 for j in range(m)]
        for i in range(m)
    ]
    return LefschetzAlgebra.from_seifert(dim, LaurentMatrix.from_rows(rows))


def run_moves(alg: LefschetzAlgebra, move, positions) -> tuple[LefschetzAlgebra, LaurentMatrix]:
    """The datum after the moves at `positions`, in order, and their transitions' product."""
    total = LaurentMatrix.identity(alg.size)
    for k in positions:
        alg, c = move(alg, k)
        total = total @ c
    return alg, total


@settings(deadline=None, max_examples=60)
@given(unitriangular_algebras(3))
@example(xab(2, 5, 3))
@example(mirror_p2(4))
def test_hurwitz_moves_satisfy_the_braid_relations(alg):
    m = alg.size
    for move in (hurwitz_move, hurwitz_inverse_move):
        for k in range(m - 2):
            assert run_moves(alg, move, [k, k + 1, k]) == run_moves(alg, move, [k + 1, k, k + 1])
        for i in range(m - 1):
            for j in range(i + 2, m - 1):
                assert run_moves(alg, move, [i, j]) == run_moves(alg, move, [j, i])


@settings(deadline=None, max_examples=60)
@given(unitriangular_algebras(2))
@example(xab(2, 5, 3))
@example(mirror_p2(4))
def test_full_twist_returns_the_datum_with_the_monodromy_as_transition(alg):
    m = alg.size
    twisted, total = run_moves(alg, hurwitz_move, list(range(m - 1)) * m)
    assert twisted == alg
    assert total == alg.monodromy().scale(LaurentPoly.monomial(alg.parity_sign, -1))
    # The inverse full twist, (sigma_{m-2}^-1 ... sigma_0^-1)^m, undoes it.
    untwisted, total_inv = run_moves(alg, hurwitz_inverse_move, list(range(m - 2, -1, -1)) * m)
    assert untwisted == alg
    assert total @ total_inv == LaurentMatrix.identity(m)


def move_blocks(alg: LefschetzAlgebra, k: int) -> list[list[list[LaurentPoly]]]:
    """The blocks of the four moves at k: Hurwitz, its inverse, rescale by q^3, shift."""
    beta = alg.seifert[k, k + 1]
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    return [[[-beta, one], [one, zero]], [[zero, one], [one, -beta.star()]], [[q**3]], [[-one]]]


@pytest.mark.parametrize("alg", [xab(2, 5, 3), rand_algebra(random.Random(8), 6, 4)],
                         ids=["xab-2-5-3", "random-6"])
def test_conjugate_equals_the_full_products(alg):
    m = alg.size
    for k in (0, m // 2, m - 2):
        for block in move_blocks(alg, k):
            rows = LaurentMatrix.identity(m).to_rows()
            for i, row in enumerate(block):
                rows[k + i][k : k + len(row)] = row
            c = LaurentMatrix.from_rows(rows)
            expected = column_dot_matmul(column_dot_matmul(c.star_transpose(), alg.seifert), c)
            moved, transition = _conjugate(alg, k, block)
            assert transition == c
            assert moved == LefschetzAlgebra.from_seifert(alg.dim, expected)


def test_a_hurwitz_move_makes_linearly_many_kernel_calls(monkeypatch):
    """A move at m = 25 computes its two rows and columns, not two m x m products."""
    alg = moved_xab()
    m = alg.size
    calls = []
    kernel = laurent_module._products

    def counting(pairs):
        pairs = list(pairs)
        calls.append(len(pairs))
        return kernel(pairs)

    for module in (laurent_module, matrix_module, moves_module):
        monkeypatch.setattr(module, "_products", counting)
    moved, c = hurwitz_move(alg, m // 2)
    monkeypatch.undo()
    assert 0 < len(calls) <= 8 * m
    assert moved == hurwitz_move(alg, m // 2)[0]


def spherical_pair(rng: random.Random, dim: int) -> tuple[LefschetzAlgebra, KClass]:
    """An algebra together with a class of spherical self-pairing in it."""
    base = rand_algebra(rng, rng.randint(1, 3), dim)
    cover, matching = base.double_cover()
    return cover, rng.choice(matching)


def test_dehn_twist_examples():
    rng = random.Random(13)
    for dim in (3, 4):
        cover, c0 = spherical_pair(rng, dim)
        sign = cover.parity_sign
        # Twisting a spherical class along itself scales it by -(-1)^n q.
        assert dehn_twist_class(cover, c0, c0) == c0.scale(
            LaurentPoly.monomial(-sign, 1)
        )
        # Orthogonal classes are untouched, by either twist.
        m = cover.size
        for _ in range(10):
            c1 = rand_kclass(rng, m)
            if gram_pairing(cover.seifert, c0, c1).is_zero():
                assert dehn_twist_class(cover, c0, c1) == c1
                assert inverse_dehn_twist_class(cover, c0, c1) == c1


def test_dehn_twist_pairing_identity():
    rng = random.Random(17)
    for dim in (3, 4):
        alg = rand_algebra(rng, 4, dim)
        s = alg.seifert
        for _ in range(30):
            c0, c1, c2 = (rand_kclass(rng, 4) for _ in range(3))
            twisted = dehn_twist_class(alg, c0, c1)
            assert gram_pairing(s, c2, twisted) == gram_pairing(s, c2, c1) - gram_pairing(
                s, c2, c0
            ) * gram_pairing(s, c0, c1)


def test_inverse_dehn_twist_pairing_identity():
    rng = random.Random(19)
    for dim in (3, 4):
        alg = rand_algebra(rng, 4, dim)
        s = alg.seifert
        scale = LaurentPoly.monomial(alg.parity_sign, -1)
        for _ in range(30):
            c0, c1, c2 = (rand_kclass(rng, 4) for _ in range(3))
            untwisted = inverse_dehn_twist_class(alg, c0, c1)
            assert gram_pairing(s, c2, untwisted) == gram_pairing(
                s, c2, c1
            ) - scale * gram_pairing(s, c2, c0) * gram_pairing(s, c0, c1)


def test_twist_inverse_composition_on_spherical_objects():
    rng = random.Random(23)
    for dim in (3, 4):
        for _ in range(10):
            cover, c0 = spherical_pair(rng, dim)
            m = cover.size
            c1 = rand_kclass(rng, m)
            forward = dehn_twist_class(cover, c0, c1)
            assert inverse_dehn_twist_class(cover, c0, forward) == c1
            backward = inverse_dehn_twist_class(cover, c0, c1)
            assert dehn_twist_class(cover, c0, backward) == c1


def test_inverse_twist_of_spherical_class_along_itself_even_case():
    rng = random.Random(29)
    cover, c0 = spherical_pair(rng, 4)
    assert inverse_dehn_twist_class(cover, c0, c0) == c0.scale(
        LaurentPoly.monomial(-1, -1)
    )


def test_iterated_spherical_twists_invert_through_long_orbits():
    # Twisting along a spherical class is reflection-like: exponents wander
    # but everything undoes perfectly, even after fifty rounds.
    alg = LefschetzAlgebra.from_seifert(
        4,
        LaurentMatrix.from_rows([[1, 1 + q, q], [0, 1, 1 + q], [0, 0, 1]]),
    )
    cover, matching = alg.double_cover()
    c0 = matching[0]
    current = matching[1]
    history = [current]
    for _ in range(50):
        current = dehn_twist_class(cover, c0, current)
        history.append(current)
    assert max(abs(c.degree()) for c in current.coords if not c.is_zero()) >= 50
    for previous in reversed(history[:-1]):
        current = inverse_dehn_twist_class(cover, c0, current)
        assert current == previous


def test_iterated_non_spherical_twists_grow_exactly():
    # Twisting along a class of large self-pairing compounds coefficients
    # exponentially; an independent rational evaluation at q = 2 confirms
    # the iteration stays exact under that growth.
    from fractions import Fraction

    from qlefschetz.matrix import gram_pairing as pair

    alg = rand_algebra(random.Random(9), 4, 4)
    heavy = KClass([3 + 2 * q, 1, -q, 2])
    current = KClass.basis_vector(4, 0)
    tracked = [c.evaluate(Fraction(2)) for c in current.coords]
    heavy_eval = [c.evaluate(Fraction(2)) for c in heavy.coords]
    for _ in range(25):
        value = pair(alg.seifert, heavy, current)
        current = dehn_twist_class(alg, heavy, current)
        scalar = value.evaluate(Fraction(2))
        tracked = [t - scalar * h for t, h in zip(tracked, heavy_eval)]
    peak = max(abs(coeff) for c in current.coords for _, coeff in c.items())
    assert peak > 10**10
    assert [c.evaluate(Fraction(2)) for c in current.coords] == tracked


def test_twist_word_parsing():
    word = TwistWord.parse("t2 t1^-1 t4")
    assert word.letters == ((1, 1), (0, -1), (3, 1))
    assert str(word) == "t2 t1^-1 t4"
    with pytest.raises(ValueError):
        TwistWord.parse("s1")
    # t0 parses; the one index rule refuses it where the generators are known.
    assert TwistWord.parse("t0").letters == ((-1, 1),)
    gens = [KClass.basis_vector(3, i) for i in range(3)]
    message = r"^twist generator 0 is not among 1\.\.3 \(numbered from 1\)$"
    with pytest.raises(IndexError, match=message):
        apply_twist_word(rand_algebra(random.Random(3), 3, 4), gens, TwistWord.parse("t0"), gens[0])
    with pytest.raises(ValueError):
        TwistWord.parse("t1^2")


@pytest.mark.parametrize("token", ["t\u0661", "t\u00b2"])
def test_twist_letters_take_ascii_digits_only(token):
    # "t\u0661" (Arabic-Indic one) used to parse as t1; "t\u00b2" (superscript
    # two) passed isdigit and then failed inside int().
    with pytest.raises(ValueError, match="bad twist letter"):
        TwistWord.parse(token)


def test_apply_twist_word():
    rng = random.Random(31)
    for dim in (4, 3):
        alg = rand_algebra(rng, 3, dim)
        target = rand_kclass(rng, 3)
        gens = [KClass.basis_vector(3, i) for i in range(3)]
        assert apply_twist_word(alg, gens, TwistWord(()), target) == target
        # A one-letter word is a single twist; order in longer words is right
        # to left.
        one = apply_twist_word(alg, gens, TwistWord.parse("t2"), target)
        assert one == dehn_twist_class(alg, gens[1], target)
        two = apply_twist_word(alg, gens, TwistWord.parse("t1 t2"), target)
        assert two == dehn_twist_class(alg, gens[0], dehn_twist_class(alg, gens[1], target))
        # An inverse letter takes its sign from the datum's own n:
        # c1 -> c1 - (-1)^n q^-1 <c0, c1> c0.
        pairing = gram_pairing(alg.seifert, gens[2], target)
        assert not pairing.is_zero()
        sign = -1 if dim % 2 else 1
        untwisted = target - gens[2].scale(LaurentPoly.monomial(sign, -1) * pairing)
        word = TwistWord.parse("t1 t3^-1")
        expected = untwisted - gens[0].scale(gram_pairing(alg.seifert, gens[0], untwisted))
        assert apply_twist_word(alg, gens, word, target) == expected
        with pytest.raises(IndexError):
            apply_twist_word(alg, gens, TwistWord.parse("t4"), target)
