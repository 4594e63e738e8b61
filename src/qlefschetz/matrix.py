"""
Exact linear algebra over Z[q, q^-1].

Matrices are dense and immutable; a product walks only the nonzero entries
of each factor, row by row, and computes each entry as one sum of products,
laurent._products, over its pairs of nonzero factors.

>>> print(LaurentMatrix.from_rows([[1, 2], [0, 1]]) @ KClass([1, LaurentPoly({1: 1})]))
(1 + 2q, q)

Determinants, ranks and nullspaces are computed by fraction-free (Bareiss)
elimination on Python integers (see _bareiss): each distinct row is shifted
to valuation 0 and evaluated at q = 2^bits, bits a multiple of 8, so that
packing and unpacking are int.to_bytes and int.from_bytes. Every entry the
elimination keeps is a minor, and each kernel vector comes from
back-substitution seeded with the last pivot (Cramer's rule), so every
division is exact. The determinant and each kernel vector are read back as
balanced base-2^bits digits. There are two precisions (see _precisions):

- the proven one, from Hadamard's bound on every minor's coefficients, at
  which every zero test and every digit read back is exact;
- the fast one, 32 bits, tried first when it is smaller and holds every
  input coefficient. Its result stands only when every kernel vector
  satisfies B @ v == 0 exactly; since evaluating q can only lower the rank,
  that also proves the rank and the pivot columns. The check runs on
  integers too (see _annihilates): with C a bound on every coefficient of
  B @ v, the rows and vectors are packed at q = 2^b, b the least multiple
  of 8 with C below 2^(b - 1), and each dot product is tested for zero,
  which at that precision only the zero polynomial passes. A nonsingular
  determinant cannot be checked that way, so it, and any failed check, is
  computed again at the proven precision.

Only the distinct rows are eliminated: a repeated row, such as each bottom
row of a double cover's [[B, B], [B, B]], adds no equation. Their exponent
window is held to MAX_WINDOW. Nullspace vectors are returned as primitive
K-theory classes: the gcd of the entries divided out (laurent_gcd, a
primitive remainder sequence over Z) and the unit ambiguity (+-q^k) fixed
canonically.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Iterable, Sequence, Union

from .laurent import IntoPoly, LaurentPoly, _poly, _products, gcd_many

EntryLike = Union[int, LaurentPoly]

#: det, rank and nullspace refuse a matrix whose distinct rows have an
#: exponent window W (see _distinct_rows) over MAX_WINDOW: elimination works
#: on integers of about bits * W bits, and its exact divisions are quadratic.
MAX_WINDOW = 2**13

#: Elimination first runs at q = 2^_FAST_BITS when that is below the proven
#: precision and holds every input coefficient; see _precisions.
_FAST_BITS = 32


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
        division, and each entry is (c * unit).exact_div(gcd).

        >>> print(KClass([0, -2, 2 * LaurentPoly({1: 1}) - 2]).canonical_primitive())
        (0, 1, 1 - q)
        """
        if self.is_zero():
            return self
        g = gcd_many(c for c in self.coords if not c.is_zero())
        first = next(c for c in self.coords if not c.is_zero())
        val = first.valuation()
        unit = LaurentPoly.monomial(1 if first[val] > 0 else -1, -val)
        return KClass((c * unit).exact_div(g) for c in self.coords)

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
        reduced once to its nonzero (j, y); each entry is then one sum of
        products over its pairs.
        """
        if isinstance(other, KClass):
            if self.cols != len(other):
                raise ValueError(f"cannot apply {self.rows}x{self.cols} to length {len(other)}")
            return KClass(_products(zip(self.row(i), other.coords)) for i in range(self.rows))
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
            pairs: list[list[tuple[LaurentPoly, LaurentPoly]]] = [[] for _ in range(n)]
            for x, row in zip(self.row(i), nonzeros):
                if x:
                    for j, y in row:
                        pairs[j].append((x, y))
            entries += [_products(p) for p in pairs]
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
        Exact determinant by fraction-free elimination at q = 2^bits. An
        empty 0x0 matrix has determinant 1, and a matrix with a repeated row
        has determinant 0 without any elimination. A zero found at the fast
        precision stands once a kernel vector proves it; any other value is
        computed at the proven precision.
        """
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        rows = _distinct_rows(self)
        if len(rows) < self.rows:
            return LaurentPoly.zero()
        fast, proven, norm = _precisions(rows)
        if fast is not None:
            _, kernel = _cramer_vectors(rows, self.cols, fast)
            if kernel and _annihilates(rows, kernel, norm):
                return LaurentPoly.zero()
        work, pivot_cols, sign = _bareiss(_packed(rows, proven))
        if len(pivot_cols) < self.rows:
            return LaurentPoly.zero()
        last = work[-1][-1] if self.rows else 1
        return _unpack(sign * last, proven, sum(_valuations(rows)))

    def rank(self) -> int:
        """Rank over the fraction field Q(q), eliminating the distinct rows only."""
        return len(_kernel(_distinct_rows(self), self.cols)[0])

    def nullspace(self) -> list[KClass]:
        """
        A basis of the right nullspace over Q(q), one canonical primitive
        vector per free column, each satisfying self @ v == 0 exactly; it
        generates the integral kernel when every free entry is a unit. Only
        the distinct rows are eliminated: a repeated row adds no equation,
        so the pivot columns and the kernel vector of each free column (the
        one vanishing at the other free columns) are those of all the rows.
        """
        _, kernel = _kernel(_distinct_rows(self), self.cols)
        return [KClass(v).canonical_primitive() for v in kernel]

    def unitriangular_inverse(self) -> LaurentMatrix:
        """
        Inverse of an upper-triangular matrix with unit diagonal; exists
        over Z[q, q^-1] and is computed by back-substitution, column by column.
        """
        if (bad := self.unitriangular_defect()) is not None:
            raise ValueError(f"matrix must be upper-triangular with unit diagonal: {bad}")
        m = self.rows
        upper = [[-x for x in self.row(p)[p + 1 :]] for p in range(m)]
        zero = LaurentPoly.zero()
        columns: list[list[LaurentPoly]] = []
        for j in range(m):
            # Column j of the inverse is zero below row j and 1 at it. Above,
            # bottom up, x[p] is the sum of -self[p, l] x[l] over p < l <= j:
            # upper[p] holds row p of -self right of the diagonal.
            x = [zero] * j + [LaurentPoly.one()]
            for p in range(j - 1, -1, -1):
                x[p] = _products(zip(upper[p], x[p + 1 :]))
            columns.append(x + [zero] * (m - 1 - j))
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
    rows = [(x.star(), gram.row(i)) for i, x in enumerate(h0.coords) if x]
    return _products((x, _products(zip(row, h1.coords))) for x, row in rows)


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


def _distinct_rows(matrix: LaurentMatrix) -> list[list[LaurentPoly]]:
    """
    The rows of matrix without repeats, each kept where it first occurs.
    Refuses rows whose exponent window W, the lesser of the sums of their
    row windows and of their column windows, exceeds MAX_WINDOW, naming the
    widest row 1-based: W bounds the span of every minor.
    """
    rows: dict[tuple[tuple[int, tuple[int, ...]], ...], tuple[int, list[LaurentPoly]]] = {}
    for i in range(matrix.rows):
        row = matrix.row(i)
        rows.setdefault(tuple([(p._val, p._coeffs) for p in row]), (i, list(row)))
    widths = [(_width(row), i) for i, row in rows.values()]
    window = min(sum(w for w, _ in widths), sum(map(_width, zip(*(r for _, r in rows.values())))))
    if window > MAX_WINDOW:
        width, i = max(widths, key=lambda wi: (wi[0], -wi[1]))
        raise ValueError(
            f"exponent window {window} exceeds the elimination budget {MAX_WINDOW}: "
            f"row {i + 1} alone spans {width}"
        )
    return [row for _, row in rows.values()]


def _width(line: Iterable[LaurentPoly]) -> int:
    """Highest degree minus lowest valuation over the nonzero entries; 0 if there are none."""
    ends = [(p._val, p._val + len(p._coeffs) - 1) for p in line if p._coeffs]
    return max(hi for _, hi in ends) - min(lo for lo, _ in ends) if ends else 0


def _valuations(rows: Sequence[Sequence[LaurentPoly]]) -> list[int]:
    """The lowest exponent of each row (0 for a zero row): the shift that packing removes."""
    return [min((p._val for p in row if p._coeffs), default=0) for row in rows]


def _precisions(rows: Sequence[Sequence[LaurentPoly]]) -> tuple[int | None, int, int]:
    """
    The fast and proven precisions for eliminating rows at q = 2^bits, and
    the largest row norm sum_j |B_ij|_1, which the check of a fast result
    needs (see _annihilates): each entry's norm is computed once, here.

    The proven precision is the least multiple of 8 with every minor's
    coefficients below 2^(bits - 1) in absolute value. A coefficient of a
    polynomial is at most its largest absolute value on |q| = 1, so by
    Hadamard's inequality a minor's coefficients are at most
    H = prod_i (sum_j |B_ij|_1^2)^(1/2) over its rows, and so over all rows
    (a zero row counts 1); the same holds over the columns, and the lesser
    bound is taken. The fast precision is _FAST_BITS, or None when it is not
    below the proven one or does not hold every input coefficient.
    """
    norms = [[sum(map(abs, p._coeffs)) for p in row] for row in rows]
    squares = [
        math.prod(max(1, sum(n * n for n in line)) for line in lines)
        for lines in (norms, list(zip(*norms)))
    ]
    proven = -(-((min(squares).bit_length() + 1) // 2 + 1) // 8) * 8
    half = 1 << (_FAST_BITS - 1)
    fits = all(-half <= c < half for row in rows for p in row for c in p._coeffs)
    fast = _FAST_BITS if fits and _FAST_BITS < proven else None
    return fast, proven, max(map(sum, norms), default=0)


def _pack(coeffs: tuple[int, ...], bits: int) -> int:
    """
    The value at q = 2^bits of sum c_k q^k, in linear time: each c_k + 2^(bits - 1)
    as bits/8 bytes, read as one integer, less the same bias in every digit.
    Every |c_k| must be below 2^(bits - 1).
    """
    size, half = bits >> 3, 1 << (bits - 1)
    data = b"".join([(c + half).to_bytes(size, "little") for c in coeffs])
    return int.from_bytes(data, "little") - _bias(len(coeffs), bits)


def _unpack(x: int, bits: int, val: int) -> LaurentPoly:
    """
    The polynomial q^val sum e_k q^k whose balanced digits e_k, in
    [-2^(bits - 1), 2^(bits - 1)), write x in base 2^bits: the inverse of
    _pack, in linear time, read off the bytes of x plus the bias.
    """
    if not x:
        return LaurentPoly.zero()
    size, half = bits >> 3, 1 << (bits - 1)
    n = x.bit_length() // bits + 2  # digits enough for x, and a zero digit above
    data = (x + _bias(n, bits)).to_bytes(n * size, "little")
    chunks = range(0, len(data), size)
    return _poly(val, [int.from_bytes(data[i : i + size], "little") - half for i in chunks])


def _bias(n: int, bits: int) -> int:
    """sum of 2^(bits - 1) 2^(bits k) over k < n."""
    return int.from_bytes((1 << (bits - 1)).to_bytes(bits >> 3, "little") * n, "little")


def _packed(rows: Sequence[Sequence[LaurentPoly]], bits: int) -> list[list[int]]:
    """
    The rows at q = 2^bits, each shifted to valuation 0 first (see
    _valuations). Each distinct coefficient tuple is packed once: packs maps
    it to its value, which each entry then shifts by its own exponent.
    """
    packs: dict[tuple[int, ...], int] = {}

    def pack(coeffs: tuple[int, ...]) -> int:
        x = packs.get(coeffs)
        if x is None:
            x = packs[coeffs] = _pack(coeffs, bits)
        return x

    return [
        [pack(p._coeffs) << (bits * (p._val - v)) if p._coeffs else 0 for p in row]
        for row, v in zip(rows, _valuations(rows))
    ]


def _kernel(
    rows: Sequence[Sequence[LaurentPoly]], ncols: int
) -> tuple[list[int], list[list[LaurentPoly]]]:
    """
    The pivot columns of rows and the Cramer kernel vector of each free
    column, over Z[q, q^-1]. A result at the fast precision stands when
    every vector vanishes under every row exactly: evaluating q can only
    lower the rank, so that proves the rank and the pivot columns too.
    Otherwise the rows are eliminated again at the proven precision.
    """
    fast, proven, norm = _precisions(rows)
    if fast is not None:
        pivot_cols, kernel = _cramer_vectors(rows, ncols, fast)
        if _annihilates(rows, kernel, norm):
            return pivot_cols, kernel
    return _cramer_vectors(rows, ncols, proven)


def _annihilates(
    rows: Sequence[Sequence[LaurentPoly]], kernel: list[list[LaurentPoly]], norm: int
) -> bool:
    """
    Whether row @ v == 0 exactly for every row and every vector v of kernel,
    decided on integers; an empty kernel is annihilated at once. Every
    coefficient of row_i @ v is at most C = N * V in absolute value, N =
    norm, the largest row norm sum_j |B_ij|_1 (see _precisions), and V the
    largest absolute coefficient of any vector. The rows and vectors are
    packed at q = 2^bits, bits the least multiple of 8 that puts C, N and V
    below 2^(bits - 1); there only the zero polynomial has value 0, so each
    integer dot product is zero exactly when its polynomial is.
    """
    if not kernel:
        return True
    top = max((max(map(abs, p._coeffs)) for v in kernel for p in v if p._coeffs), default=0)
    bits = -(-(max(norm * top, norm, top).bit_length() + 1) // 8) * 8
    packed_rows = _packed(rows, bits)
    return all(
        not sum(map(operator.mul, row, v)) for v in _packed(kernel, bits) for row in packed_rows
    )


def _cramer_vectors(
    rows: Sequence[Sequence[LaurentPoly]], ncols: int, bits: int
) -> tuple[list[int], list[list[LaurentPoly]]]:
    """
    The pivot columns of rows at q = 2^bits, and the kernel vector of each
    free column, unpacked. The vector of free column f is zero at the other
    free columns; it is seeded with the last pivot left of f, so by
    Cramer's rule each of its entries is a minor and each back-substitution
    step divides exactly.
    """
    work, pivot_cols, _ = _bareiss(_packed(rows, bits))
    pivots = set(pivot_cols)
    kernel: list[list[LaurentPoly]] = []
    k = 0  # pivots left of the current column
    for free in range(ncols):
        if free in pivots:
            k += 1
            continue
        x = [0] * ncols
        x[free] = work[k - 1][pivot_cols[k - 1]] if k else 1
        for r in range(k - 1, -1, -1):
            p, row = pivot_cols[r], work[r]
            total = row[free] * x[free]
            for l in pivot_cols[r + 1 : k]:
                total += row[l] * x[l]
            x[p] = -(total // row[p])
        kernel.append([_unpack(c, bits, 0) for c in x])
    return pivot_cols, kernel


def _bareiss(work: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """
    Fraction-free row echelon form of an integer matrix, in place. Returns
    the reduced rows, the pivot columns in order, and the sign accumulated
    by row swaps. Every entry of a pivot row is a minor of the input, and
    rows below the last pivot are zero.

    Each update is (x * pivot - head * b) // den[i], b the pivot row's
    entry, and a row whose head is zero is skipped whole. den[i] is the
    pivot row i was last updated with (1 before any update); a row
    skipped since then stands for its entries times prev / den[i], prev
    being the latest pivot, and that factor cancels in its next update,
    which divides by den[i] (Lee and Saunders 1995). A stale row chosen as
    pivot row is brought up to date once, as x * prev // den[r].

    Pivots are the candidates of fewest bits, ties by row order, to keep
    the minors short; a stale candidate is counted up to date. The
    choice changes no result over Z[q, q^-1], since the matrix fixes the
    pivot columns, the determinant and the kernel vector of each free
    column.
    """
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivot_cols: list[int] = []
    sign = 1
    prev = 1
    den = [prev] * nrows
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        candidates = [i for i in range(r, nrows) if work[i][c]]
        if not candidates:
            continue
        i = min(candidates, key=lambda i: (_current(work[i][c], prev, den[i]).bit_length(), i))
        if i != r:
            work[r], work[i] = work[i], work[r]
            den[r], den[i] = den[i], den[r]
            sign = -sign
        prow = work[r]
        if den[r] != prev:
            d = den[r]
            prow[c:] = [_current(x, prev, d) for x in prow[c:]]
        pivot = prow[c]
        for i in range(r + 1, nrows):
            row = work[i]
            head = row[c]
            if not head:
                continue
            d = den[i]
            for j in range(c + 1, ncols):
                row[j] = (row[j] * pivot - head * prow[j]) // d
            row[c] = 0
            den[i] = pivot
        prev = pivot
        pivot_cols.append(c)
        r += 1
    return work, pivot_cols, sign


def _current(x: int, prev: int, den: int) -> int:
    """An entry x of a row last updated with pivot den, brought up to the latest pivot prev."""
    return x if den == prev else x * prev // den
