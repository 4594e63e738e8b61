"""
The library's own refusals: each bad call raises its exception with a
message that names what is wrong, and a class never equals a matrix.
"""

from __future__ import annotations

import re

import pytest

from qlefschetz.catalog import induced_total_space, milnor_ar, mirror_p2
from qlefschetz.laurent import LaurentPoly, q
from qlefschetz.lefschetz import LefschetzAlgebra
from qlefschetz.matrix import KClass, LaurentMatrix
from qlefschetz.moves import TwistWord, apply_twist_word
from qlefschetz.serialize import dumps_canonical

FIBRE, SPHERES = milnor_ar(4, 4)

REFUSALS = {
    "zero-degree": (
        lambda: LaurentPoly.zero().degree(),
        ValueError,
        "the zero polynomial has no degree",
    ),
    "zero-valuation": (
        lambda: LaurentPoly.zero().valuation(),
        ValueError,
        "the zero polynomial has no valuation",
    ),
    "evaluate-at-0": (
        lambda: q.evaluate(0),
        ZeroDivisionError,
        "Laurent polynomials cannot be evaluated at 0",
    ),
    "non-square-intersection": (
        lambda: LefschetzAlgebra.from_intersection(4, LaurentMatrix.from_rows([[1, 0]])),
        ValueError,
        "intersection matrix must be square",
    ),
    "basis-index": (
        lambda: KClass.basis_vector(3, 3),
        IndexError,
        "basis index 3 out of range for size 3",
    ),
    "negative-shape": (
        lambda: LaurentMatrix(-1, 0, ()),
        ValueError,
        "matrix dimensions must be nonnegative",
    ),
    "short-entries": (
        lambda: LaurentMatrix(2, 2, ()),
        ValueError,
        "expected 4 entries, got 0",
    ),
    "ragged-rows": (
        lambda: LaurentMatrix.from_rows([[1, 0], [1]]),
        ValueError,
        "ragged rows",
    ),
    "matrix-index": (
        lambda: LaurentMatrix.identity(2)[2, 0],
        IndexError,
        "index (2, 0) out of range for 2x2",
    ),
    "apply-to-short-class": (
        lambda: LaurentMatrix.identity(2) @ KClass([1]),
        ValueError,
        "cannot apply 2x2 to length 1",
    ),
    "non-square-det": (
        lambda: LaurentMatrix.from_rows([[1, 0]]).det(),
        ValueError,
        "determinant of a non-square matrix",
    ),
    "twist-sign": (
        lambda: TwistWord(((0, 2),)),
        ValueError,
        "twist sign must be +-1, got 2",
    ),
    "twist-index": (
        lambda: TwistWord(((-1, 1),)),
        ValueError,
        "generator index -1 is negative",
    ),
    "twist-letter-range": (
        lambda: apply_twist_word(FIBRE, SPHERES, TwistWord.parse("t9"), SPHERES[0]),
        IndexError,
        "twist generator 9 is not among 1..5 (numbered from 1)",
    ),
    "seed-range": (
        lambda: induced_total_space(FIBRE, [(TwistWord.parse("t1"), 6)]),
        IndexError,
        "seed 7 is not among 1..5 (numbered from 1)",
    ),
    "non-unitriangular-inverse": (
        lambda: LaurentMatrix.from_rows([[1, 0], [q, 1]]).unitriangular_inverse(),
        ValueError,
        "matrix must be upper-triangular with unit diagonal: entry (2, 1) is q",
    ),
    "mirror-dimension": (
        lambda: mirror_p2(2),
        ValueError,
        "the induction needs n >= 3, got 2",
    ),
    "float-in-json": (
        lambda: dumps_canonical({"x": 1.5}),
        TypeError,
        "Object of type float is not JSON serializable",
    ),
}


@pytest.mark.parametrize("call, kind, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, kind, message):
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()


def test_a_class_never_equals_a_matrix():
    assert (KClass([1]) == LaurentMatrix.identity(1)) is False
