"""
Independent oracles shared by the test suite.

Everything here is deliberately written by a different route than the
library: products and quotients by schoolbook convolution and long
division, matrix products column by column, pairing matrices and the
independence certificate one pair of classes at a time, determinants by
cofactor expansion, ranks by rational Gaussian elimination after
evaluating q, integer elimination by textbook Bareiss on rows evaluated
at q = 2^bits through fractions, monodromy pairings by their closed formula, whole-matrix
formulas for the intersection matrix and the classical shadow, and the
published band-matrix formulas entered directly rather than built through
the induction pipeline.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from qlefschetz.catalog import milnor_ar, xab
from qlefschetz.laurent import ExactDivisionError, LaurentPoly, q
from qlefschetz.lefschetz import ConsistencyError, LefschetzAlgebra
from qlefschetz.matrix import KClass, LaurentMatrix, gram_pairing
from qlefschetz.moves import hurwitz_move
from qlefschetz.obstructions import HypothesisError, spherical_value


def rand_poly(rng: random.Random, max_span: int = 3, max_coeff: int = 4) -> LaurentPoly:
    lo = rng.randint(-2, 2)
    return LaurentPoly(
        {lo + i: rng.randint(-max_coeff, max_coeff) for i in range(rng.randint(0, max_span))}
    )


def rand_matrix(rng: random.Random, rows: int, cols: int) -> LaurentMatrix:
    return LaurentMatrix.from_rows(
        [[rand_poly(rng) for _ in range(cols)] for _ in range(rows)]
    )


def rand_kclass(rng: random.Random, m: int) -> KClass:
    return KClass([rand_poly(rng) for _ in range(m)])


def rand_algebra(rng: random.Random, m: int, dim: int) -> LefschetzAlgebra:
    rows = [
        [1 if i == j else rand_poly(rng) if i < j else 0 for j in range(m)]
        for i in range(m)
    ]
    return LefschetzAlgebra.from_seifert(dim, LaurentMatrix.from_rows(rows))


def moved_xab() -> LefschetzAlgebra:
    """xab(7, 18, 3), m = 25, after six Hurwitz moves: 14 distinct entries among 625."""
    alg = xab(7, 18, 3)
    for k in (3, 9, 15, 20, 4, 11):
        alg, _ = hurwitz_move(alg, k)
    return alg


def assert_canonical(p: LaurentPoly) -> None:
    """No zero coefficient at either end, and zero is (0, ())."""
    assert type(p._coeffs) is tuple
    if p._coeffs:
        assert p._coeffs[0] and p._coeffs[-1]
    else:
        assert p._val == 0


def schoolbook_product(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a * b by convolving the coefficient maps term by term."""
    terms: dict[int, int] = {}
    for e, x in a.items():
        for f, y in b.items():
            terms[e + f] = terms.get(e + f, 0) + x * y
    return LaurentPoly(terms)


def schoolbook_sum_div(pairs: list[tuple[LaurentPoly, LaurentPoly]], d: LaurentPoly) -> LaurentPoly:
    """(x1 * y1 + ... + xk * yk) / d: the schoolbook products, summed one by
    one, then long-divided by d."""
    total = LaurentPoly.zero()
    for x, y in pairs:
        total = total + schoolbook_product(x, y)
    return long_division(total, d)


def column_dot_matmul(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """
    a @ b entry by entry: the dot product of row i of a with column j of b,
    over all a.cols index pairs, each product by schoolbook convolution.
    """
    columns = [b.entries[j :: b.cols] for j in range(b.cols)]
    entries = []
    for i in range(a.rows):
        for col in columns:
            acc = LaurentPoly.zero()
            for x, y in zip(a.row(i), col):
                acc = acc + schoolbook_product(x, y)
            entries.append(acc)
    return LaurentMatrix(a.rows, b.cols, tuple(entries))


def pairwise_pairing_matrix(gram: LaurentMatrix, classes: list[KClass]) -> LaurentMatrix:
    """The matrix of gram_pairing(gram, c_i, c_j), one call per pair of classes."""
    return LaurentMatrix.from_rows(
        [[gram_pairing(gram, ci, cj) for cj in classes] for ci in classes]
    )


def pairwise_independence_certificate(alg: LefschetzAlgebra, classes: list[KClass]) -> bool:
    """
    The independence certificate's Gram check one pair at a time, in
    row-major order: True, or HypothesisError naming the first entry that
    is not the spherical value on the diagonal and zero off it.
    """
    if alg.dim % 2 == 0:
        raise HypothesisError("the independence certificate needs odd parity")
    target = spherical_value(alg.dim)
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            value = alg.pairing(ci, cj)
            expected = target if i == j else LaurentPoly.zero()
            if value != expected:
                raise HypothesisError(
                    f"Gram entry ({i + 1}, {j + 1}) is {value}, expected {expected}"
                )
    return True


def long_division(a: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """
    a / d by long division from the top, subtracting multiples of d until
    nothing is left; raises ExactDivisionError when a term does not divide
    or a remainder stays.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    quotient, rest = LaurentPoly.zero(), a
    while not rest.is_zero() and rest.span() >= d.span():
        c, r = divmod(rest[rest.degree()], d[d.degree()])
        if r:
            raise ExactDivisionError(f"{d} does not divide {a}")
        term = LaurentPoly.monomial(c, rest.degree() - d.degree())
        quotient, rest = quotient + term, rest - schoolbook_product(term, d)
    if not rest.is_zero():
        raise ExactDivisionError(f"{d} does not divide {a}")
    return quotient


def rational_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """
    The gcd by Euclid over Q: the gcd of the contents times the rational
    gcd of the primitive parts, cleared of denominators and made primitive,
    in the normal form with valuation 0 and positive constant term.
    """

    def primitive(p: LaurentPoly) -> list[Fraction]:
        if p.is_zero():
            return []
        return [Fraction(p[e], p.content()) for e in range(p.valuation(), p.degree() + 1)]

    fa, fb = primitive(a), primitive(b)
    while any(fb):
        while fb[-1] == 0:
            fb.pop()
        rem = list(fa)
        while len(rem) >= len(fb):
            factor = rem[-1] / fb[-1]
            offset = len(rem) - len(fb)
            for i, c in enumerate(fb):
                rem[offset + i] -= factor * c
            rem.pop()
        fa, fb = fb, rem
    denom = math.lcm(*(f.denominator for f in fa))
    ints = [int(f * denom) for f in fa]
    content = math.gcd(a.content(), b.content())
    g = LaurentPoly({i: content * (c // math.gcd(*ints)) for i, c in enumerate(ints)})
    if g.is_zero():
        return g
    return LaurentPoly.monomial(1 if g[g.valuation()] > 0 else -1, -g.valuation()) * g


def cofactor_det(mat: LaurentMatrix) -> LaurentPoly:
    """Determinant by Laplace expansion along the first row."""
    n = mat.rows
    if n == 0:
        return LaurentPoly.one()
    if n == 1:
        return mat[0, 0]
    total = LaurentPoly.zero()
    for j in range(n):
        minor = LaurentMatrix.from_rows(
            [[mat[i, c] for c in range(n) if c != j] for i in range(1, n)]
        )
        term = mat[0, j] * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def evaluate_matrix(mat: LaurentMatrix, x: Fraction | int) -> list[list[Fraction]]:
    return [
        [mat[i, j].evaluate(Fraction(x)) for j in range(mat.cols)]
        for i in range(mat.rows)
    ]


def fraction_rank(rows: list[list[Fraction]]) -> int:
    work = [list(r) for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / work[rank][c]
            for j in range(c, ncols):
                work[i][j] -= f * work[rank][j]
        rank += 1
    return rank


def fraction_det(rows: list[list[Fraction]]) -> Fraction:
    work = [list(r) for r in rows]
    n = len(work)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            det = -det
        det *= work[c][c]
        for i in range(c + 1, n):
            f = work[i][c] / work[c][c]
            for j in range(c, n):
                work[i][j] -= f * work[c][j]
    return det


def packed_at(rows: list[list[LaurentPoly]], bits: int) -> list[list[int]]:
    """
    The rows evaluated at q = 2^bits, exactly, after shifting each row by the
    lowest exponent among its nonzero entries (0 for a zero row).
    """
    x = Fraction(2**bits)
    packed = []
    for row in rows:
        shift = min((p.valuation() for p in row if not p.is_zero()), default=0)
        values = [(p * LaurentPoly.monomial(1, -shift)).evaluate(x) for p in row]
        assert all(v.denominator == 1 for v in values)
        packed.append([int(v) for v in values])
    return packed


def plain_integer_bareiss(rows: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """
    Textbook Bareiss on an integer matrix: at each step every entry below the
    pivot row is replaced by (x * pivot - head * b) / prev, exactly, with
    the pivot of fewest bits, ties by row order. Returns the echelon rows,
    the pivot columns and the sign of the row swaps.
    """
    work = [list(r) for r in rows]
    nrows, ncols = len(work), len(work[0]) if rows else 0
    pivot_cols, sign, prev, r = [], 1, 1, 0
    for c in range(ncols):
        if r >= nrows:
            break
        candidates = [i for i in range(r, nrows) if work[i][c] != 0]
        if not candidates:
            continue
        i = min(candidates, key=lambda i: (abs(work[i][c]).bit_length(), i))
        if i != r:
            work[r], work[i] = work[i], work[r]
            sign = -sign
        for i in range(r + 1, nrows):
            head = work[i][c]
            for j in range(c, ncols):
                quotient, remainder = divmod(work[i][j] * work[r][c] - head * work[r][j], prev)
                assert remainder == 0
                work[i][j] = quotient
        prev = work[r][c]
        pivot_cols.append(c)
        r += 1
    return work, pivot_cols, sign


def monodromy_pairing_matrix(alg: LefschetzAlgebra) -> LaurentMatrix:
    """
    All pairings of the monodromy image of a basis class against another,
    by the closed formula (-1)^n q^-1 S (S^-1)* S: entry (i, j) is the
    pairing of N e_i with e_j.
    """
    s = alg.seifert
    product = s @ s.unitriangular_inverse().star_transpose() @ s
    return product.scale(LaurentPoly.monomial(alg.parity_sign, -1))


def full_regeneration(dim: int, seifert: LaurentMatrix) -> LaurentMatrix:
    """The intersection matrix S - (-1)^n q S* by whole-matrix arithmetic."""
    return seifert - seifert.star_transpose().scale(LaurentPoly.monomial(sign_of(dim), 1))


def classical_charpoly_matrix(alg: LefschetzAlgebra) -> LaurentMatrix:
    """S1 - (-1)^n q S1^T for S1 = S(1), entry by entry."""
    s1 = alg.seifert.eval_at_one()
    m, sq = alg.size, LaurentPoly.monomial(sign_of(alg.dim), 1)
    return LaurentMatrix.from_rows(
        [[LaurentPoly.coerce(s1[i][j]) - sq * s1[j][i] for j in range(m)] for i in range(m)]
    )


def classical_shadow(alg: LefschetzAlgebra) -> tuple[list[list[int]], ...]:
    """S(1), B(1) and (-1)^n S(1)^-1 S(1)^T, each evaluated on its own."""
    constant = LaurentMatrix.from_rows(alg.seifert.eval_at_one())
    n1 = constant.unitriangular_inverse() @ constant.star_transpose()
    monodromy1 = [[sign_of(alg.dim) * e for e in row] for row in n1.eval_at_one()]
    return alg.seifert.eval_at_one(), alg.intersection.eval_at_one(), monodromy1


def regenerated_intersection(dim: int, intersection: LaurentMatrix) -> LaurentMatrix:
    """
    The consistency check by full regeneration: rebuild S - (-1)^n q S*
    from the upper triangle of the input and compare every entry in
    row-major order, raising the ConsistencyError that from_intersection
    documents at the first disagreement. Returns the regenerated matrix.
    """
    m = intersection.rows
    seifert = LaurentMatrix.from_rows(
        [
            [intersection[i, j] if i < j else 1 if i == j else 0 for j in range(m)]
            for i in range(m)
        ]
    )
    expected = full_regeneration(dim, seifert)
    for i in range(m):
        for j in range(m):
            if expected[i, j] != intersection[i, j]:
                raise ConsistencyError(
                    f"entry ({i + 1}, {j + 1}) is {intersection[i, j]}, but the "
                    f"upper triangle forces {expected[i, j]} for parity (-1)^{dim}",
                    position=(i, j),
                )
    return expected


# -- published matrices, entered from their closed-form descriptions --------


def sign_of(n: int) -> int:
    return -1 if n % 2 else 1


def deformed_sphere_pairing(r: int, n: int, i: int, j: int) -> LaurentPoly:
    """
    Pairing of the i-th and j-th standard sphere in the cyclic A_r chain
    (1-based, indices mod r+1): diagonal 1 - (-1)^n q, one step forward
    (-1)^n q, one step back -1, otherwise 0.
    """
    s = sign_of(n)
    m = r + 1
    d = (j - i) % m
    if d == 0:
        return 1 - s * q
    if d == 1 % m:
        return s * q
    if d == (m - 1) % m:
        return LaurentPoly.coerce(-1)
    return LaurentPoly.zero()


def band_entry(a: int, b: int, n: int, i: int, j: int) -> LaurentPoly:
    """
    Entry (i, j), 1-based, of the published cyclic band matrix for the
    (a, b) hypersurface family, straight from its case list.
    """
    s = sign_of(n)
    m = a + b
    d = (i - j) % m
    if d == (-a) % m:
        return s * q
    if b + 1 <= d <= m - 1:
        return 1 + s * q
    if d == 0:
        return 1 - s * q
    if 1 <= d <= a - 1:
        return -1 - s * q
    if d == a % m:
        return LaurentPoly.coerce(-1)
    return LaurentPoly.zero()


def sphere_sum_windows(a: int, b: int, n: int) -> list[KClass]:
    """
    The vanishing cycles of the (a, b) family summed sphere by sphere: the
    i-th is the sum of the a spheres of milnor_ar(a + b - 1, n) from the
    i-th on, cyclically, where xab takes the telescoped e_(i+a) - e_i.
    """
    _, spheres = milnor_ar(a + b - 1, n)
    m = a + b
    return [sum((spheres[(i + s) % m] for s in range(1, a)), spheres[i]) for i in range(m)]


def band_matrix(a: int, b: int, n: int) -> LaurentMatrix:
    m = a + b
    return LaurentMatrix.from_rows(
        [[band_entry(a, b, n, i, j) for j in range(1, m + 1)] for i in range(1, m + 1)]
    )


def classical_band_entry(a: int, b: int, n: int, i: int, j: int) -> int:
    """The q = 1 specialization of the band matrix, from its own case list."""
    s = sign_of(n)
    m = a + b
    d = (i - j) % m
    if d == (-a) % m:
        return s
    if b + 1 <= d <= m - 1:
        return 1 + s
    if d == 0:
        return 1 - s
    if 1 <= d <= a - 1:
        return -1 - s
    if d == a % m:
        return -1
    return 0


def mirror_p2_matrix(n: int) -> LaurentMatrix:
    """The displayed 3x3 q-intersection matrix of the Landau-Ginzburg
    mirror to the projective plane, entered verbatim."""
    s = sign_of(n)
    return LaurentMatrix.from_rows(
        [
            [1 - s * q, -s * q**-1 - 1 - s * q, 1 + s * q + q**2],
            [1 + s * q + q**2, 1 - s * q, -1 - s * q - q**2],
            [-s * q**-1 - 1 - s * q, 1 + s * q**-1 + s * q, 1 - s * q],
        ]
    )


def mirror_p2_det_factors(n: int) -> LaurentPoly:
    """The published determinant, by multiplying out its stated factors."""
    s = sign_of(n)
    return q**-2 * (q - 1) ** 2 * (q + 1) ** 2 * (q - s) * (q**2 + 1)


def mirror_p2_det_consistent(n: int) -> LaurentPoly:
    """
    The determinant of the published mirror-plane matrix in both parities:
    the published factors with (q - (-1)^n) replaced by ((-1)^n q - 1),
    which is (-1)^n times it. The published product matches the matrix
    only in even parity. In odd parity the matrix determinant is its
    negative, -q^-2 (q - 1)^2 (q + 1)^3 (q^2 + 1): fraction-free
    elimination, cofactor expansion, rational elimination at sample
    points and sympy all agree, and no move can change the sign, since
    every move replaces B by P B P* with det P * det P* = 1.
    """
    s = sign_of(n)
    return q**-2 * (q - 1) ** 2 * (q + 1) ** 2 * (s * q - 1) * (q**2 + 1)


CLASSICAL_23_INTERSECTION = [
    [0, 2, 1, -1, -2],
    [-2, 0, 2, 1, -1],
    [-1, -2, 0, 2, 1],
    [1, -1, -2, 0, 2],
    [2, 1, -1, -2, 0],
]

CLASSICAL_23_SEIFERT = [
    [1, 2, 1, -1, -2],
    [0, 1, 2, 1, -1],
    [0, 0, 1, 2, 1],
    [0, 0, 0, 1, 2],
    [0, 0, 0, 0, 1],
]
