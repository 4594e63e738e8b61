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
        return parity_sign(self.dim)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_intersection(cls, dim: int, intersection: LaurentMatrix) -> LefschetzAlgebra:
        """
        Build the datum from a vanishing-cycle intersection matrix. The
        Seifert matrix is its upper triangle with unit diagonal; the input
        is then compared, in row-major order, with the matrix that Seifert
        form regenerates (see _regenerated), and the first disagreement
        raises ConsistencyError. This catches transcription errors in user
        files, the dominant failure mode. The regenerated upper triangle is
        the input's own, so only the diagonal and the lower triangle can
        disagree.
        """
        if not intersection.is_square():
            raise ValueError("intersection matrix must be square")
        m = intersection.rows
        entries = intersection.entries
        zero, one = LaurentPoly.zero(), LaurentPoly.one()
        upper: list[LaurentPoly] = []
        for i in range(m):
            upper += (zero,) * i + (one,) + entries[i * m + i + 1 : (i + 1) * m]
        seifert = LaurentMatrix(m, m, tuple(upper))
        for k, expected in enumerate(_regenerated(dim, seifert)):
            if entries[k] is not expected and entries[k] != expected:
                i, j = divmod(k, m)
                raise ConsistencyError(
                    f"entry ({i + 1}, {j + 1}) is {entries[k]}, but the "
                    f"upper triangle forces {expected} for parity (-1)^{dim}",
                    position=(i, j),
                )
        return cls(dim, seifert, intersection)

    @classmethod
    def from_seifert(cls, dim: int, seifert: LaurentMatrix) -> LefschetzAlgebra:
        """Build the datum from a unitriangular S; B is what _regenerated yields."""
        if (bad := seifert.unitriangular_defect()) is not None:
            raise ValueError(f"Seifert matrix must be upper-triangular with unit diagonal: {bad}")
        m = seifert.rows
        return cls(dim, seifert, LaurentMatrix(m, m, tuple(_regenerated(dim, seifert))))

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
        The q = 1 shadow: the Seifert, intersection and monodromy matrices
        of the classical datum (see _classical), evaluated at q = 1. Since
        star fixes q = 1 values, these are S(1), B(1) and the classical
        monodromy (-1)^n S(1)^-1 S(1)^T, integral because S(1) is
        unitriangular. Returned as (seifert, intersection, monodromy).
        """
        c = self._classical()
        return c.seifert.eval_at_one(), c.intersection.eval_at_one(), c.monodromy().eval_at_one()

    def charpoly_matrix(self) -> LaurentMatrix:
        """
        The constant-coefficient deformation S1 - q (-1)^n S1^T of the
        classical Seifert form S1 = S(1): the intersection matrix of the
        classical datum (see _classical), since star fixes constants. Its
        determinant equals det(I - q N) for the classical monodromy N.
        """
        return self._classical().intersection

    def _classical(self) -> LefschetzAlgebra:
        """The datum of the same parity whose Seifert matrix is S(1)."""
        seifert1 = LaurentMatrix.from_rows(self.seifert.eval_at_one())
        return LefschetzAlgebra.from_seifert(self.dim, seifert1)

    def double_cover(self) -> tuple[LefschetzAlgebra, list[KClass]]:
        """
        The double cover branched along a fibre. Its 2m vanishing cycles are
        two copies of the original basis, so its Seifert matrix is the block
        matrix [[S, B], [0, S]] with B the intersection matrix. The k-th
        matching sphere joins the two copies of the k-th cycle; its class is
        the mapping cone class e_(k+m) - e_k.
        """
        m, s, b = self.size, self.seifert, self.intersection
        zero = LaurentPoly.zero()
        entries: list[LaurentPoly] = []
        for i in range(m):
            entries += s.row(i) + b.row(i)
        for i in range(m):
            entries += (zero,) * m + s.row(i)
        seifert = LaurentMatrix(2 * m, 2 * m, tuple(entries))
        cover = LefschetzAlgebra.from_seifert(self.dim, seifert)
        matching = [KClass.cone(2 * m, k, k + m) for k in range(m)]
        return cover, matching


def parity_sign(dim: int) -> int:
    """(-1)^n for the total space dimension n; only this parity enters a formula."""
    return -1 if dim % 2 else 1


def _regenerated(dim: int, seifert: LaurentMatrix) -> list[LaurentPoly]:
    """
    The entries, row-major, of the intersection matrix S - (-1)^n q S* of a
    unitriangular S: S above the diagonal, 1 - (-1)^n q on it and
    -(-1)^n q star(S[j, i]) at a lower entry (i, j), computed once per
    distinct S[j, i].
    """
    m, s = seifert.rows, seifert.entries
    minus_sq = LaurentPoly.monomial(-parity_sign(dim), 1)
    diagonal = 1 + minus_sq
    lower: dict[tuple[int, tuple[int, ...]], LaurentPoly] = {}
    entries: list[LaurentPoly] = []
    for i in range(m):
        for x in s[i : i * m : m]:  # S[j, i] for j < i
            y = lower.get(key := (x._val, x._coeffs))  # hashed in C, not by __hash__
            if y is None:
                y = lower[key] = minus_sq * x.star()
            entries.append(y)
        entries.append(diagonal)
        entries += s[i * m + i + 1 : (i + 1) * m]
    return entries
