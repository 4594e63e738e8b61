"""
The relation B = S - (-1)^n q S*, written once in lefschetz._regenerated,
against the whole-matrix formulas in tests/oracles.py.

from_intersection checks only the diagonal and the lower triangle. It must
accept exactly the matrices that the full regeneration check accepts, and
reject the others with the same message and position. from_seifert must
build the fully regenerated matrix, and the classical shadow (the datum of
S(1)) must give what the hand-written q = 1 formulas give.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlefschetz.laurent import LaurentPoly
from qlefschetz.lefschetz import ConsistencyError, LefschetzAlgebra
from qlefschetz.matrix import LaurentMatrix

from oracles import (
    classical_charpoly_matrix,
    classical_shadow,
    full_regeneration,
    regenerated_intersection,
)

polys = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), max_size=3).map(LaurentPoly)


@st.composite
def seifert_data(draw, min_size=0):
    """A parity (n = 3 or 4) and a unitriangular S of size min_size to 6."""
    dim = draw(st.integers(3, 4))
    m = draw(st.integers(min_size, 6))
    seifert = LaurentMatrix.from_rows(
        [[1 if i == j else draw(polys) if i < j else 0 for j in range(m)] for i in range(m)]
    )
    return dim, seifert


@st.composite
def perturbed_intersections(draw):
    """A consistent B of either parity, maybe with one entry changed."""
    dim, seifert = draw(seifert_data(min_size=1))
    m = seifert.rows
    rows = LefschetzAlgebra.from_seifert(dim, seifert).intersection.to_rows()
    where = draw(st.sampled_from(["none", "diagonal", "lower", "upper", "any"]))
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    if where == "diagonal":
        j = i
    elif where in ("lower", "upper") and i != j:
        i, j = (max(i, j), min(i, j)) if where == "lower" else (min(i, j), max(i, j))
    if where != "none":
        rows[i][j] = draw(st.one_of(polys.map(lambda p: rows[i][j] + p), polys))
    return dim, LaurentMatrix.from_rows(rows)


def outcome(check, dim, b):
    try:
        return "accepted", check(dim, b)
    except ConsistencyError as exc:
        return "rejected", (str(exc), exc.position)


@settings(deadline=None, max_examples=300)
@given(perturbed_intersections())
def test_triangle_check_agrees_with_full_regeneration(case):
    dim, b = case
    expected = outcome(regenerated_intersection, dim, b)
    got = outcome(LefschetzAlgebra.from_intersection, dim, b)
    if expected[0] == "accepted":
        assert got[0] == "accepted"
        alg = got[1]
        assert alg.intersection == expected[1] == b
        assert alg.seifert.unitriangular_defect() is None
        assert LefschetzAlgebra.from_seifert(dim, alg.seifert).intersection == b
    else:
        assert got == expected


@pytest.mark.parametrize("dim", [3, 4])
def test_first_bad_entry_is_found_in_row_major_order(dim):
    # Two bad entries: the diagonal (2, 2) and the lower (3, 1); row-major
    # order reaches (2, 2) first, as the full comparison does.
    b = LefschetzAlgebra.from_seifert(dim, LaurentMatrix.identity(3)).intersection.to_rows()
    b[1][1] = b[1][1] + 1
    b[2][0] = LaurentPoly.coerce(7)
    bad = LaurentMatrix.from_rows(b)
    with pytest.raises(ConsistencyError) as info:
        LefschetzAlgebra.from_intersection(dim, bad)
    assert info.value.position == (1, 1)
    assert outcome(regenerated_intersection, dim, bad)[1] == (str(info.value), (1, 1))


@settings(deadline=None, max_examples=100)
@given(seifert_data())
def test_from_seifert_builds_the_full_regeneration(case):
    dim, seifert = case
    assert LefschetzAlgebra.from_seifert(dim, seifert).intersection == full_regeneration(
        dim, seifert
    )


@settings(deadline=None, max_examples=100)
@given(seifert_data())
def test_classical_shadow_matches_the_q1_formulas(case):
    alg = LefschetzAlgebra.from_seifert(*case)
    assert alg.charpoly_matrix() == classical_charpoly_matrix(alg)
    assert alg.specialize_classical() == classical_shadow(alg)
