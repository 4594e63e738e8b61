"""
Exact linear algebra over Z[q, q^-1].

Matrices are dense and immutable; a product walks only the nonzero entries
of each factor, row by row. Determinants, ranks and nullspaces are computed
by fraction-free elimination in the Bareiss style, and kernel vectors by
fraction-free back-substitution: every intermediate entry is a minor of the
input and every division is exact. Each update is one call of the ring's one
kernel laurent._cross_div; elimination skips updates that cannot change a
value and keeps a denominator per row, so rows with a zero head are never
rescaled (see _bareiss). Nullspace vectors are returned as primitive
K-theory classes: the gcd of the entries divided out (laurent_gcd, a
primitive remainder sequence over Z) and the unit ambiguity (+-q^k) fixed
canonically.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence, Union

from .laurent import IntoPoly, LaurentPoly, _cross_div, gcd_many

EntryLike = Union[int, LaurentPoly]


class FrozenRecord:
    """
    The base of the package's immutable records: what a frozen dataclass
    gives, without importing dataclasses (and inspect) into every process.
    The fields are the subclass's __slots__, set once by __init__ from
    positional arguments, keywords or the class's _defaults; assigning or
    deleting one raises AttributeError. Two instances of the same class are
    equal, and hash alike, when their field tuples are; repr is
    Name(field=value, ...).
    """

    __slots__ = ()
    _defaults: dict[str, Any] = {}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        names = self.__slots__
        given = dict(zip(names, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _fields(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class KClass(FrozenRecord):
    """
    A vector in Z[q, q^-1]^m: the equivariant K-theory class of a brane or
    vanishing cycle, in coordinates given by a basis of Lefschetz thimbles.
    """

    __slots__ = ("coords",)
    coords: tuple[LaurentPoly, ...]

    def __init__(self, coords: Iterable[EntryLike]):
        object.__setattr__(
            self, "coords", tuple(LaurentPoly.coerce(c) for c in coords)
        )

    @classmethod
    def zero(cls, m: int) -> KClass:
        return cls([0] * m)

    @classmethod
    def basis_vector(cls, m: int, k: int) -> KClass:
        if not 0 <= k < m:
            raise IndexError(f"basis index {k} out of range for size {m}")
        return cls([1 if i == k else 0 for i in range(m)])

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> LaurentPoly:
        return self.coords[i]

    def __add__(self, other: KClass) -> KClass:
        if not isinstance(other, KClass):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError("cannot add classes of different lengths")
        return KClass(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: KClass) -> KClass:
        if not isinstance(other, KClass):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> KClass:
        return KClass(-c for c in self.coords)

    def scale(self, f: IntoPoly) -> KClass:
        f = LaurentPoly.coerce(f)
        return KClass(f * c for c in self.coords)

    __rmul__ = scale

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def eval_at_one(self) -> tuple[int, ...]:
        return tuple(c.eval_at_one() for c in self.coords)

    def canonical_primitive(self) -> KClass:
        """
        The canonical representative of this class up to Q(q)-scaling:
        divide by the gcd of the entries, then shift by the monomial that
        gives the first nonzero entry valuation 0, with a positive
        coefficient there. Used to pin down nullspace generators like
        (1, ..., 1) uniquely.
        """
        if self.is_zero():
            return self
        g = gcd_many(c for c in self.coords if not c.is_zero())
        coords = [c.exact_div(g) for c in self.coords]
        first = next(c for c in coords if not c.is_zero())
        val = first.valuation()
        unit = LaurentPoly.monomial(1 if first[val] > 0 else -1, -val)
        return KClass(unit * c for c in coords)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


class LaurentMatrix(FrozenRecord):
    """A rows x cols matrix over Z[q, q^-1], stored row-major."""

    __slots__ = ("rows", "cols", "entries")
    rows: int
    cols: int
    entries: tuple[LaurentPoly, ...]

    def __init__(self, rows: int, cols: int, entries: tuple[LaurentPoly, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        super().__init__(rows, cols, entries)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[EntryLike]]) -> LaurentMatrix:
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(
            nrows, ncols, tuple(LaurentPoly.coerce(x) for row in rows for x in row)
        )

    @classmethod
    def identity(cls, m: int) -> LaurentMatrix:
        return cls.diagonal([1] * m)

    @classmethod
    def diagonal(cls, values: Sequence[EntryLike]) -> LaurentMatrix:
        m = len(values)
        entries = [LaurentPoly.zero()] * (m * m)
        entries[:: m + 1] = [LaurentPoly.coerce(x) for x in values]
        return cls(m, m, tuple(entries))

    # -- access -------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> LaurentPoly:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {key} out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[LaurentPoly, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[LaurentPoly]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_unitriangular(self) -> bool:
        """Upper-triangular with every diagonal entry equal to 1."""
        if not self.is_square():
            return False
        for i in range(self.rows):
            if self[i, i] != 1:
                return False
            for j in range(i):
                if not self[i, j].is_zero():
                    return False
        return True

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: LaurentMatrix) -> LaurentMatrix:
        return self._entrywise(other, LaurentPoly.__add__)

    def __sub__(self, other: LaurentMatrix) -> LaurentMatrix:
        return self._entrywise(other, LaurentPoly.__sub__)

    def _entrywise(
        self, other: LaurentMatrix, op: Callable[[LaurentPoly, LaurentPoly], LaurentPoly]
    ) -> LaurentMatrix:
        """The matrix of op(a, b) over the entries a of self and b of other."""
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")
        return LaurentMatrix(self.rows, self.cols, tuple(map(op, self.entries, other.entries)))

    def scale(self, f: IntoPoly) -> LaurentMatrix:
        f = LaurentPoly.coerce(f)
        return LaurentMatrix(self.rows, self.cols, tuple(f * a for a in self.entries))

    def __matmul__(self, other: LaurentMatrix | KClass):
        """
        With a matrix, in row order over nonzeros (Gustavson 1978): row i is
        the sum of x * other.row(l) over the nonzero x = self[i, l], each row
        of other reduced once to its nonzero (j, y).
        """
        if isinstance(other, KClass):
            if self.cols != len(other):
                raise ValueError(f"cannot apply {self.rows}x{self.cols} to length {len(other)}")
            return KClass(_dot(self.row(i), other.coords) for i in range(self.rows))
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n = other.cols
        nonzeros = [[(j, y) for j, y in enumerate(other.row(l)) if y] for l in range(other.rows)]
        entries: list[LaurentPoly] = []
        for i in range(self.rows):
            acc = [LaurentPoly.zero()] * n
            for x, row in zip(self.row(i), nonzeros):
                if x:
                    for j, y in row:
                        acc[j] = acc[j] + x * y
            entries += acc
        return LaurentMatrix(self.rows, n, tuple(entries))

    def star_transpose(self) -> LaurentMatrix:
        """Transpose combined with q -> q^-1 on every entry."""
        return LaurentMatrix(
            self.cols,
            self.rows,
            tuple(self[i, j].star() for j in range(self.cols) for i in range(self.rows)),
        )

    def eval_at_one(self) -> list[list[int]]:
        return [[self[i, j].eval_at_one() for j in range(self.cols)] for i in range(self.rows)]

    # -- elimination ----------------------------------------------------------

    def det(self) -> LaurentPoly:
        """
        Exact determinant by fraction-free elimination. An empty 0x0 matrix
        has determinant 1.
        """
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        work, pivot_cols, sign = _bareiss(self.to_rows())
        if len(pivot_cols) < self.rows:
            return LaurentPoly.zero()
        last = work[self.rows - 1][pivot_cols[-1]] if self.rows else LaurentPoly.one()
        return -last if sign < 0 else last

    def rank(self) -> int:
        """Rank over the fraction field Q(q)."""
        _, pivot_cols, _ = _bareiss(self.to_rows())
        return len(pivot_cols)

    def nullspace(self) -> list[KClass]:
        """
        A basis of the right nullspace over Q(q), one canonical primitive
        vector per free column, each satisfying self @ v == 0 exactly.
        """
        work, pivot_cols, _ = _bareiss(self.to_rows())
        basis: list[KClass] = []
        k = 0  # pivots left of the current column
        for free in range(self.cols):
            if k < len(pivot_cols) and pivot_cols[k] == free:
                k += 1
                continue
            # The last pivot as seed makes every division exact (Cramer's rule).
            coords = [LaurentPoly.zero()] * self.cols
            coords[free] = work[k - 1][pivot_cols[k - 1]] if k else LaurentPoly.one()
            _back_substitute(work[:k], pivot_cols[:k], coords)
            basis.append(KClass(coords).canonical_primitive())
        return basis

    def unitriangular_inverse(self) -> LaurentMatrix:
        """
        Inverse of an upper-triangular matrix with unit diagonal; exists
        over Z[q, q^-1] and is computed by back-substitution, column by column.
        """
        if not self.is_unitriangular():
            raise ValueError("matrix is not upper-triangular with unit diagonal")
        m = self.rows
        rows = self.to_rows()
        columns: list[list[LaurentPoly]] = []
        for j in range(m):
            column = [LaurentPoly.zero()] * m
            column[j] = LaurentPoly.one()
            _back_substitute(rows[: j + 1], range(j + 1), column)
            columns.append(column)
        return LaurentMatrix(m, m, tuple(columns[j][i] for i in range(m) for j in range(m)))

    def __str__(self) -> str:
        cells = [[str(self[i, j]) for j in range(self.cols)] for i in range(self.rows)]
        widths = [
            max((len(cells[i][j]) for i in range(self.rows)), default=0)
            for j in range(self.cols)
        ]
        return "\n".join(
            "[ " + "  ".join(cells[i][j].rjust(widths[j]) for j in range(self.cols)) + " ]"
            for i in range(self.rows)
        )


def gram_pairing(gram: LaurentMatrix, h0: KClass, h1: KClass) -> LaurentPoly:
    """
    The sesquilinear pairing star(h0)^T gram h1. It is star-linear in the
    first slot and linear in the second, so scaling by f, g multiplies the
    value by star(f) g.
    """
    if len(h0) != gram.rows or len(h1) != gram.cols:
        raise ValueError(
            f"class lengths {len(h0)}, {len(h1)} do not fit a "
            f"{gram.rows}x{gram.cols} pairing matrix"
        )
    acc = LaurentPoly.zero()
    for i in range(gram.rows):
        if not h0[i].is_zero():
            acc = acc + h0[i].star() * _dot(gram.row(i), h1.coords)
    return acc


def _dot(xs: Iterable[LaurentPoly], ys: Iterable[LaurentPoly]) -> LaurentPoly:
    """The sum of x * y over paired entries, skipping pairs with a zero factor."""
    acc = LaurentPoly.zero()
    for x, y in zip(xs, ys):
        if not (x.is_zero() or y.is_zero()):
            acc = acc + x * y
    return acc


def _back_substitute(
    rows: Sequence[Sequence[LaurentPoly]], pivot_cols: Sequence[int], x: list[LaurentPoly]
) -> None:
    """
    Solve rows @ x == b in place, bottom up, for echelon rows with pivots in
    pivot_cols. On entry x holds b at the pivot columns and the chosen
    values elsewhere; each pivot coordinate is divided out exactly.
    """
    for r in range(len(pivot_cols) - 1, -1, -1):
        p = pivot_cols[r]
        row = rows[r]
        x[p] = (x[p] - _dot(row[p + 1 :], x[p + 1 :])).exact_div(row[p])


def _bareiss(
    work: list[list[LaurentPoly]],
) -> tuple[list[list[LaurentPoly]], list[int], int]:
    """
    Fraction-free row echelon form, in place. Returns the reduced rows, the
    pivot columns in order, and the sign accumulated by row swaps. Every
    entry of a pivot row is the Bareiss minor; rows below the last pivot
    are zero.

    Each update is one _cross_div, (x * pivot - head * b) / den[i], done
    only where it can change a value: a row whose head is zero is skipped
    whole, and an entry is skipped when it and the pivot-row entry b are
    both zero. den[i] is the pivot row i was last updated with (1 before
    any update); a row skipped since then stands for its entries times
    prev / den[i], prev being the latest pivot, and that factor cancels in
    its next update, which divides by den[i] (Lee and Saunders 1995). A
    stale row chosen as pivot row is brought up to date once, as
    x * prev / den[r] entry by entry.

    Pivots are the candidates of smallest span, ties by row order, to keep
    the minors short; a stale candidate's span is counted as if up to date.
    The choice changes no result, since the matrix fixes the pivot columns,
    the determinant and the kernel vector of each free column.
    """
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivot_cols: list[int] = []
    sign = 1
    zero = LaurentPoly.zero()
    prev = LaurentPoly.one()
    den = [prev] * nrows
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        candidates = [i for i in range(r, nrows) if work[i][c]]
        if not candidates:
            continue
        i = min(candidates, key=lambda i: (work[i][c].span() - den[i].span(), i))
        if i != r:
            work[r], work[i] = work[i], work[r]
            den[r], den[i] = den[i], den[r]
            sign = -sign
        prow = work[r]
        if den[r] != prev:
            prow[c:] = [_cross_div(x, prev, zero, zero, den[r]) if x else x for x in prow[c:]]
        pivot = prow[c]
        for i in range(r + 1, nrows):
            row = work[i]
            head = row[c]
            if not head:
                continue
            d = den[i]
            for j in range(c + 1, ncols):
                if row[j] or prow[j]:
                    row[j] = _cross_div(row[j], pivot, head, prow[j], d)
            row[c] = zero
            den[i] = pivot
        prev = pivot
        pivot_cols.append(c)
        r += 1
    return work, pivot_cols, sign
