"""
Generators for the worked families of fibration data.

Everything is produced by one pipeline, run one dimension down: start from
a type-A Milnor fibre, itself a fibration datum of dimension n - 1 whose
Seifert matrix S is the equivariant Mukai pairing matrix, with the K-theory
classes of its standard spheres; express the vanishing cycles of the total
space as classes in that fibre, directly or as words of Dehn twists
applied to the spheres, and pair those classes: with them as the columns
of R, R* S R is the total space's intersection matrix.

Coordinate convention for the sphere chain with m = r + 1 basis objects:
the k-th sphere is the cone of the degree-zero morphism from the k-th
object to its successor, so its class is e_(k+1) - e_k; the last sphere
closes the cycle with a grading shift, giving e_1 - e_(r+1). With this
convention the pairings of the spheres reproduce the published cyclic
tridiagonal form verbatim.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

from .laurent import LaurentPoly
from .lefschetz import LefschetzAlgebra, parity_sign
from .matrix import KClass, LaurentMatrix, pairing_matrix
from .moves import TwistWord, _checked, apply_twist_word

ClassSpec = Union[KClass, tuple[TwistWord, int]]


def milnor_ar(r: int, n: int) -> tuple[LefschetzAlgebra, tuple[KClass, ...]]:
    """
    The type-A_r Milnor fibre of the n-dimensional family and its spheres:
    the datum of dimension n - 1 whose Seifert matrix is the (r+1) x (r+1)
    unitriangular Mukai matrix with every strict upper entry 1 + (-1)^n q
    (so every entry of its intersection matrix is 1 + (-1)^n q), and the
    cyclic chain of sphere classes e_(k+1) - e_k, closed up by e_1 - e_(r+1).
    """
    if r < 1:
        raise ValueError(f"the sphere chain needs r >= 1, got {r}")
    m = r + 1
    upper = 1 + LaurentPoly.monomial(parity_sign(n), 1)
    mukai = LaurentMatrix.from_rows(
        [[1 if i == j else upper if i < j else 0 for j in range(m)] for i in range(m)]
    )
    spheres = tuple(KClass.cone(m, k, (k + 1) % m) for k in range(m))
    return LefschetzAlgebra.from_seifert(n - 1, mukai), spheres


def induced_total_space(
    fibre: LefschetzAlgebra,
    class_specs: Sequence[ClassSpec],
    generators: Sequence[KClass] | None = None,
) -> LefschetzAlgebra:
    """
    Run one step of the dimensional induction: resolve each class spec to
    a K-theory class of the fibre, pair the resolved classes as R* S R (R
    their columns, S the fibre's Seifert matrix), and validate the result
    as the intersection matrix of the total space, of dimension
    fibre.dim + 1. A spec is a class or (twist word, seed index); the word
    acts in the fibre on that generator. The generators default to the
    fibre's thimble basis. An inconsistent result (for a wrongly ordered
    collection, say) is a ConsistencyError of the validation.
    """
    if generators is None:
        generators = [KClass.basis_vector(fibre.size, k) for k in range(fibre.size)]

    resolved: list[KClass] = []
    for spec in class_specs:
        if isinstance(spec, KClass):
            resolved.append(spec)
        else:
            word, seed = spec
            _checked("seed", seed, len(generators))
            resolved.append(apply_twist_word(fibre, generators, word, generators[seed]))

    return LefschetzAlgebra.from_intersection(
        fibre.dim + 1, pairing_matrix(fibre.seifert, resolved)
    )


def xab(a: int, b: int, n: int) -> LefschetzAlgebra:
    """
    The hypersurface family indexed by coprime 0 < a < b: its fibre is the
    type-A chain with a + b spheres, and the i-th vanishing cycle is the
    window of width a starting at the i-th sphere, cyclically, whose sum
    telescopes to e_(i+a) - e_i. The result is the published cyclic band
    matrix.
    """
    if not 0 < a < b:
        raise ValueError(f"need 0 < a < b, got ({a}, {b})")
    if math.gcd(a, b) != 1:
        raise ValueError(f"({a}, {b}) must be coprime")
    if n < 3:
        raise ValueError(f"the induction needs n >= 3, got {n}")
    m = a + b
    windows = [KClass.cone(m, i, (i + a) % m) for i in range(m)]
    return induced_total_space(milnor_ar(m - 1, n)[0], windows)


MIRROR_P2_WORDS: tuple[tuple[str, int], ...] = (
    ("t2", 0),
    ("t2^-1 t1", 3),
    ("t3 t1", 1),
)


def mirror_p2(n: int) -> LefschetzAlgebra:
    """
    The fibration on the mirror of the projective plane, induced over the
    type-A_3 fibre from the twist words MIRROR_P2_WORDS read off its
    vanishing paths, each acting on its seed sphere. The pairing matrix
    has nonzero determinant, so this family has no kernel classes at all.
    """
    if n < 3:
        raise ValueError(f"the induction needs n >= 3, got {n}")
    fibre, spheres = milnor_ar(3, n)
    specs = [(TwistWord.parse(word), seed) for word, seed in MIRROR_P2_WORDS]
    return induced_total_space(fibre, specs, spheres)
