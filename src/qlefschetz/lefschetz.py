"""
The q-intersection datum of a Lefschetz fibration and its derived invariants.

A fibration with m critical points and total space of complex dimension n
is recorded by two m x m matrices over Z[q, q^-1]:

  * the Seifert matrix S, upper-triangular with unit diagonal, pairing the
    Lefschetz thimbles;
  * the intersection matrix ("Gram matrix" of the vanishing cycles), which
    determines and is determined by S through

        intersection = S - q (-1)^n S*,

    where * is star_transpose. Only the parity of n enters any formula.

From these one derives the hermitian pairing on the coordinate module
Z[q, q^-1]^m, the q-monodromy operator, the classical (q = 1) shadow, the
constant-coefficient deformation whose determinant is the characteristic
polynomial of the classical monodromy, and the double branched cover with
its matching spheres.
"""

from __future__ import annotations

from .laurent import LaurentPoly
from .matrix import FrozenRecord, KClass, LaurentMatrix, gram_pairing


class ConsistencyError(ValueError):
    """
    An intersection matrix that cannot come from any fibration of the given
    parity: it disagrees with the matrix rebuilt from its own upper triangle.
    Carries the first offending (row, col) position, 0-based.
    """

    def __init__(self, message: str, position: tuple[int, int]):
        super().__init__(message)
        self.position = position


class LefschetzAlgebra(FrozenRecord):
    """Immutable fibration datum; all derived values are pure functions."""

    __slots__ = ("dim", "seifert", "intersection")
    dim: int
    seifert: LaurentMatrix
    intersection: LaurentMatrix

    @property
    def size(self) -> int:
        """Number of vanishing cycles (the basis size m)."""
        return self.seifert.rows

    @property
    def parity_sign(self) -> int:
        """(-1)^n for the total space dimension n."""
        return -1 if self.dim % 2 else 1

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_intersection(cls, dim: int, intersection: LaurentMatrix) -> LefschetzAlgebra:
        """
        Build the datum from a vanishing-cycle intersection matrix. The
        Seifert matrix is its upper triangle with unit diagonal; the input
        is then checked against the matrix that Seifert form regenerates,
        and any disagreement raises ConsistencyError. This catches
        transcription errors in user files, the dominant failure mode.

        The regenerated matrix S - (-1)^n q S* agrees with the input above
        the diagonal by construction, has 1 - (-1)^n q on it, and has
        -(-1)^n q star(B[j, i]) at a lower entry (i, j). So only the
        diagonal and the lower triangle are checked, in row-major order,
        which finds the same first disagreement as a full comparison.
        """
        if not intersection.is_square():
            raise ValueError("intersection matrix must be square")
        m = intersection.rows
        entries = intersection.entries
        zero, one = LaurentPoly.zero(), LaurentPoly.one()
        seifert = LaurentMatrix(
            m,
            m,
            tuple(
                entries[i * m + j] if i < j else one if i == j else zero
                for i in range(m)
                for j in range(m)
            ),
        )
        minus_sq = LaurentPoly.monomial(1 if dim % 2 else -1, 1)  # -(-1)^n q
        diagonal = one + minus_sq
        for i in range(m):
            for j in range(i + 1):
                expected = diagonal if i == j else minus_sq * entries[j * m + i].star()
                if entries[i * m + j] != expected:
                    raise ConsistencyError(
                        f"entry ({i + 1}, {j + 1}) is {entries[i * m + j]}, but the "
                        f"upper triangle forces {expected} for parity (-1)^{dim}",
                        position=(i, j),
                    )
        return cls(dim, seifert, intersection)

    @classmethod
    def from_seifert(cls, dim: int, seifert: LaurentMatrix) -> LefschetzAlgebra:
        """Build the datum from an upper-triangular unit-diagonal matrix."""
        if not seifert.is_unitriangular():
            raise ValueError("Seifert matrix must be upper-triangular with unit diagonal")
        return cls(dim, seifert, _intersection_from_seifert(dim, seifert))

    # -- the pairing and its symmetries --------------------------------------

    def pairing(self, h0: KClass, h1: KClass) -> LaurentPoly:
        """
        The hermitian pairing star(h0)^T S h1 on K-theory classes. For
        standard basis vectors it returns the Seifert entries; a Lagrangian
        submanifold's self-pairing computes its q-self-intersection number.
        """
        return gram_pairing(self.seifert, h0, h1)

    def monodromy(self) -> LaurentMatrix:
        """
        The q-monodromy operator (-1)^n q S^-1 S*, the unique matrix N with
        pairing(h0, N h1) = (-1)^n q star(pairing(h1, h0)) for all classes.
        """
        n_q = self.seifert.unitriangular_inverse() @ self.seifert.star_transpose()
        return n_q.scale(LaurentPoly.monomial(self.parity_sign, 1))

    def specialize_classical(
        self,
    ) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
        """
        The q = 1 shadow: integer Seifert and intersection matrices, plus
        the classical monodromy (-1)^n S1^-1 S1^T (integral because S1 is
        unitriangular). Returned as (seifert, intersection, monodromy).
        """
        seifert1 = self.seifert.eval_at_one()
        intersection1 = self.intersection.eval_at_one()
        constant = LaurentMatrix.from_rows(seifert1)
        n1 = constant.unitriangular_inverse() @ constant.star_transpose()
        monodromy1 = [[self.parity_sign * e for e in row] for row in n1.eval_at_one()]
        return seifert1, intersection1, monodromy1

    def charpoly_matrix(self) -> LaurentMatrix:
        """
        The constant-coefficient deformation S1 - q (-1)^n S1^T of the
        classical Seifert form (plain transpose; no q-inversion, since the
        entries are constants). Its determinant equals det(I - q N) for the
        classical monodromy N.
        """
        seifert1 = self.seifert.eval_at_one()
        m = self.size
        sq = LaurentPoly.monomial(self.parity_sign, 1)
        return LaurentMatrix.from_rows(
            [
                [
                    LaurentPoly.coerce(seifert1[i][j]) - sq * seifert1[j][i]
                    for j in range(m)
                ]
                for i in range(m)
            ]
        )

    def double_cover(self) -> tuple[LefschetzAlgebra, list[KClass]]:
        """
        The double cover branched along a fibre. Its 2m vanishing cycles are
        two copies of the original basis, so its Seifert matrix is the block
        matrix [[S, B], [0, S]] with B the intersection matrix. The k-th
        matching sphere joins the two copies of the k-th cycle; its class is
        the mapping cone class e_(k+m) - e_k.
        """
        m = self.size
        blocks = [
            [
                self.seifert[i, j]
                if i < m and j < m
                else self.intersection[i, j - m]
                if i < m <= j
                else self.seifert[i - m, j - m]
                if i >= m and j >= m
                else LaurentPoly.zero()
                for j in range(2 * m)
            ]
            for i in range(2 * m)
        ]
        cover = LefschetzAlgebra.from_seifert(self.dim, LaurentMatrix.from_rows(blocks))
        matching = [
            KClass.basis_vector(2 * m, k + m) - KClass.basis_vector(2 * m, k)
            for k in range(m)
        ]
        return cover, matching


def _intersection_from_seifert(dim: int, seifert: LaurentMatrix) -> LaurentMatrix:
    sign = -1 if dim % 2 else 1
    return seifert - seifert.star_transpose().scale(LaurentPoly.monomial(sign, 1))
