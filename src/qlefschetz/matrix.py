"""
Exact linear algebra over Z[q, q^-1].

Matrices are dense and immutable; a product walks only the nonzero entries
of each factor, row by row. Determinants, ranks and nullspaces are computed
by fraction-free elimination in the Bareiss style, and kernel vectors by
fraction-free back-substitution: every intermediate entry is a minor of the
input and every division is exact. Only the distinct rows are eliminated: a
repeated row, such as each bottom row of a double cover's [[B, B], [B, B]],
adds no equation. Each update is one call of the ring's one kernel
laurent._cross_div; elimination skips updates that cannot change a value
and keeps a denominator per row, so rows with a zero head are never
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

    @classmethod
    def cone(cls, m: int, i: int, j: int) -> KClass:
        """e_j - e_i (0-based, i != j): the class of the cone of a morphism from object i to j."""
        coords = [LaurentPoly.zero()] * m
        coords[i], coords[j] = -LaurentPoly.one(), LaurentPoly.one()
        return cls(coords)

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
        (1, ..., 1) uniquely. The gcd has valuation 0 and a positive
        constant term, so the first entry fixes that unit before any
        division, and each entry is one kernel call c * unit / gcd.
        """
        if self.is_zero():
            return self
        g = gcd_many(c for c in self.coords if not c.is_zero())
        first = next(c for c in self.coords if not c.is_zero())
        val = first.valuation()
        unit = LaurentPoly.monomial(1 if first[val] > 0 else -1, -val)
        return KClass(_cross_div(((c, unit),), g) for c in self.coords)

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

    def unitriangular_defect(self) -> str | None:
        """Why the matrix is not unitriangular, naming its first bad entry 1-based; else None."""
        if not self.is_square():
            return f"it is {self.rows}x{self.cols}"
        one = LaurentPoly.one()
        for i in range(self.rows):
            row = self.row(i)
            if row[i] != one or any(row[:i]):
                j = next((j for j in range(i) if row[j]), i)  # row-major: below the diagonal first
                return f"entry ({i + 1}, {j + 1}) is {row[j]}"
        return None

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
        With a matrix, in row order over nonzeros (Gustavson 1978): row i
        collects, for each column j, the pairs (x, y) of a nonzero
        x = self[i, l] and a nonzero y = other[l, j], each row of other
        reduced once to its nonzero (j, y); each entry is then one kernel
        call on its pairs.
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
        zero, one = LaurentPoly.zero(), LaurentPoly.one()
        entries: list[LaurentPoly] = []
        for i in range(self.rows):
            pairs: list[list[tuple[LaurentPoly, LaurentPoly]]] = [[] for _ in range(n)]
            for x, row in zip(self.row(i), nonzeros):
                if x:
                    for j, y in row:
                        pairs[j].append((x, y))
            entries += [_cross_div(p, one) if p else zero for p in pairs]
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
        has determinant 1, and a matrix with a repeated row has determinant
        0 without any elimination.
        """
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        rows = _distinct_rows(self)
        if len(rows) < self.rows:
            return LaurentPoly.zero()
        work, pivot_cols, sign = _bareiss(rows)
        if len(pivot_cols) < self.rows:
            return LaurentPoly.zero()
        last = work[self.rows - 1][pivot_cols[-1]] if self.rows else LaurentPoly.one()
        return -last if sign < 0 else last

    def rank(self) -> int:
        """Rank over the fraction field Q(q), eliminating the distinct rows only."""
        _, pivot_cols, _ = _bareiss(_distinct_rows(self))
        return len(pivot_cols)

    def nullspace(self) -> list[KClass]:
        """
        A basis of the right nullspace over Q(q), one canonical primitive
        vector per free column, each satisfying self @ v == 0 exactly. Only
        the distinct rows are eliminated: a repeated row adds no equation,
        so the pivot columns and the kernel vector of each free column (the
        one vanishing at the other free columns) are those of all the rows.
        """
        work, pivot_cols, _ = _bareiss(_distinct_rows(self))
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
        if (bad := self.unitriangular_defect()) is not None:
            raise ValueError(f"matrix must be upper-triangular with unit diagonal: {bad}")
        m = self.rows
        rows = self.to_rows()
        zero = LaurentPoly.zero()
        columns: list[list[LaurentPoly]] = []
        for j in range(m):
            # Column j of the inverse is zero below row j.
            column = [zero] * j + [LaurentPoly.one()]
            _back_substitute(rows[: j + 1], range(j + 1), column)
            columns.append(column + [zero] * (m - 1 - j))
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
    rows = [i for i, x in enumerate(h0.coords) if x]
    return _dot([h0[i].star() for i in rows], [_dot(gram.row(i), h1.coords) for i in rows])


def pairing_matrix(gram: LaurentMatrix, classes: Sequence[KClass]) -> LaurentMatrix:
    """
    The matrix of gram_pairing(gram, c_i, c_j) over the classes c_1..c_k:
    the congruence R* gram R, where R has the classes as columns.
    """
    m = gram.rows
    for i, c in enumerate(classes):
        if len(c) != m:
            raise ValueError(f"class {i + 1} has length {len(c)}, not the pairing matrix's {m}")
    r = LaurentMatrix(m, len(classes), tuple(c[i] for i in range(m) for c in classes))
    return r.star_transpose() @ gram @ r


def _dot(xs: Iterable[LaurentPoly], ys: Iterable[LaurentPoly]) -> LaurentPoly:
    """The sum of x * y over paired entries, one kernel call; zero factors drop out."""
    return _cross_div(list(zip(xs, ys)), LaurentPoly.one())


def _distinct_rows(matrix: LaurentMatrix) -> list[list[LaurentPoly]]:
    """The rows of matrix without repeats, each kept where it first occurs."""
    rows: dict[tuple[tuple[int, tuple[int, ...]], ...], list[LaurentPoly]] = {}
    for i in range(matrix.rows):
        row = matrix.row(i)
        rows.setdefault(tuple([(p._val, p._coeffs) for p in row]), list(row))
    return list(rows.values())


def _back_substitute(
    rows: Sequence[Sequence[LaurentPoly]], pivot_cols: Sequence[int], x: list[LaurentPoly]
) -> None:
    """
    Solve rows @ x == b in place, bottom up, for echelon rows with pivots in
    pivot_cols. On entry x holds b at the pivot columns and the chosen
    values elsewhere; each pivot coordinate is divided out exactly.
    """
    n, minus_one = len(x), -LaurentPoly.one()
    for r in range(len(pivot_cols) - 1, -1, -1):
        p = pivot_cols[r]
        row = rows[r]
        # (x[p] - sum of row[l] x[l]) / row[p], as one kernel call on the
        # negated sum over the negated pivot.
        pairs = list(zip(row[p + 1 : n], x[p + 1 :]))
        pairs.append((x[p], minus_one))
        x[p] = _cross_div(pairs, -row[p])


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

    Zero tests read the coefficient tuple rather than make a Python-level
    call of LaurentPoly.__bool__, and the pivot row's nonzero flags are
    built once per step.
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
        candidates = [i for i in range(r, nrows) if work[i][c]._coeffs]
        if not candidates:
            continue
        i = min(candidates, key=lambda i: (work[i][c].span() - den[i].span(), i))
        if i != r:
            work[r], work[i] = work[i], work[r]
            den[r], den[i] = den[i], den[r]
            sign = -sign
        prow = work[r]
        if den[r] != prev:
            prow[c:] = [_cross_div(((x, prev),), den[r]) if x._coeffs else x for x in prow[c:]]
        pivot = prow[c]
        nonzero = [bool(x._coeffs) for x in prow]
        for i in range(r + 1, nrows):
            row = work[i]
            head = row[c]
            if not head._coeffs:
                continue
            d, minus_head = den[i], -head
            for j in range(c + 1, ncols):
                x = row[j]
                if x._coeffs or nonzero[j]:
                    row[j] = _cross_div(((x, pivot), (minus_head, prow[j])), d)
            row[c] = zero
            den[i] = pivot
        prev = pivot
        pivot_cols.append(c)
        r += 1
    return work, pivot_cols, sign
