"""
Identities of the theory, checked on random unitriangular data.

With u = -(-1)^n q the intersection matrix satisfies B = u B*, B* its
star-transpose. Hence det B = u^m star(det B); a kernel vector v of B gives
the left kernel vector star(v), star(v)^T B = 0; and its self-pairing
p = star(v)^T S v satisfies p = (-1)^n q star(p). A basis move C gives
B' = C* B C with star(det C) det C = 1, so each of the four moves keeps
det B and the kernel up to C: ker B' = C^-1 ker B. The rank, and with it
the sphere test's verdict and branch, cannot change. A rank-1 generator
changes by C^-1 and a unit, so its self-pairing is kept; a rank >= 2 kernel
only keeps its span, since its canonical generators may change. A double
cover, with Seifert matrix [[S, B], [0, S]], has intersection matrix
[[B, B], [u B*, B]] = [[B, B], [B, B]]: its bottom half repeats its top half.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlefschetz.catalog import mirror_p2, xab
from qlefschetz.laurent import LaurentPoly
from qlefschetz.lefschetz import LefschetzAlgebra
from qlefschetz.matrix import LaurentMatrix
from qlefschetz.moves import hurwitz_inverse_move, hurwitz_move, rescale_object, shift_object
from qlefschetz.obstructions import sphere_test

from test_moves import unitriangular_algebras

DOUBLE_COVER = xab(2, 3, 4).double_cover()[0]  # m = 10, kernel rank 6

# A drawn datum rarely has a kernel, but its double cover has intersection
# matrix [[B, B], [B, B]], so the cover of a drawn m <= 3 datum has rank >= m.
DATA = st.one_of(
    unitriangular_algebras(2),
    unitriangular_algebras(2).filter(lambda a: a.size <= 3).map(lambda a: a.double_cover()[0]),
)


def identities(test):
    """Run test on drawn data and covers and on the catalog's band, mirror and cover data."""
    for alg in (xab(2, 5, 3), xab(3, 4, 4), mirror_p2(3), mirror_p2(4), DOUBLE_COVER):
        test = example(alg)(test)
    return settings(deadline=None, max_examples=40)(given(DATA)(test))


def moves(alg: LefschetzAlgebra):
    """Every move at every position, as (name, position, moved datum, C with S' = C* S C)."""
    m = alg.size
    for k in range(m - 1):
        yield ("hurwitz", k, *hurwitz_move(alg, k))
        yield ("hurwitz-inverse", k, *hurwitz_inverse_move(alg, k))
    for k in range(m):
        for weight in (-2, 3):
            rescaled = [LaurentPoly.monomial(1, weight) if i == k else 1 for i in range(m)]
            yield ("rescale", k, rescale_object(alg, k, weight), LaurentMatrix.diagonal(rescaled))
        flipped = [-1 if i == k else 1 for i in range(m)]
        yield ("shift", k, shift_object(alg, k), LaurentMatrix.diagonal(flipped))


@identities
def test_det_is_star_symmetric_up_to_the_parity_unit(alg):
    u = LaurentPoly.monomial(-alg.parity_sign, 1)
    det = alg.intersection.det()
    assert det == u**alg.size * det.star()


@identities
def test_kernel_vectors_are_star_left_kernel_vectors(alg):
    b_star = alg.intersection.star_transpose()
    for v in alg.intersection.nullspace():
        assert (b_star @ v).is_zero()  # star(v)^T B is the star of B* v, transposed


@identities
def test_kernel_self_pairings_are_parity_symmetric(alg):
    # B h = 0 gives S h = (-1)^n q S* h, so p = star(h)^T S h = (-1)^n q star(p).
    result = sphere_test(alg)
    for p in result.self_pairings:
        assert p == LaurentPoly.monomial(alg.parity_sign, 1) * p.star()


@identities
def test_moves_keep_det_kernel_and_sphere_verdict(alg):
    det, before = alg.intersection.det(), sphere_test(alg)
    rank = len(before.kernel)
    assert rank == alg.size - alg.intersection.rank()
    for name, k, moved, c in moves(alg):
        assert moved.intersection.det() == det, (name, k)
        after = sphere_test(moved)
        assert len(after.kernel) == rank, (name, k)
        assert (after.verdict, after.branch) == (before.verdict, before.branch), (name, k)
        # C ker B' lies in ker B and has its rank, so ker B' = C^-1 ker B.
        assert all((alg.intersection @ (c @ w)).is_zero() for w in after.kernel), (name, k)
        if rank <= 1:
            assert after.self_pairings == before.self_pairings, (name, k)


@pytest.mark.parametrize("n", [3, 4])
def test_double_cover_intersection_repeats_its_top_half(n):
    band = xab(2, 3, n)
    for alg in (band, mirror_p2(n), band.double_cover()[0]):
        b, m = alg.intersection, alg.size
        cover = alg.double_cover()[0].intersection
        # [[B, B], [B, B]]: row i + m repeats row i, column j + m repeats column j.
        for i in range(2 * m):
            for j in range(2 * m):
                assert cover[i, j] == b[i % m, j % m], (m, i, j)
