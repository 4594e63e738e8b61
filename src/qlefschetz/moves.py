"""
Basis changes and group actions on a fibration datum.

Two kinds of operation live here and are deliberately kept apart:

  * moves acting on the algebra itself (its distinguished basis). Each is
    one conjugation S -> C* S C by an elementary matrix C, the identity
    but for one block at (k, k) (_conjugate): a 2x2 block for the Hurwitz
    move and its inverse, which generate the braid group's action on
    distinguished bases, and a 1x1 block q^shift or -1 for the diagonal
    moves that rescale an object's equivariant weight or flip its grading;

  * Dehn twists acting on K-theory classes while the algebra stays fixed:
    the reflection-like map c1 -> c1 - <c0, c1> c0 for a twist along c0,
    its inverse, and words in such twists. Each takes the algebra it acts
    in, which supplies the pairing <,> and, for the inverse, the parity.

Hurwitz moves return the transition matrix C alongside the new algebra so
that callers can transport classes between the two bases.
"""

from __future__ import annotations

from typing import Sequence

from .laurent import LaurentPoly
from .lefschetz import LefschetzAlgebra
from .matrix import EntryLike, FrozenRecord, KClass, LaurentMatrix, _dot


class TwistWord(FrozenRecord):
    """
    A word in signed twist generators, e.g. ((1, +1), (0, -1)) for
    "t2 t1^-1". Letters are stored in written order, 0-based, and applied
    right to left, so the last letter acts first. A letter's index is
    checked where the generators are known (_checked), t0 included.
    """

    __slots__ = ("letters",)
    letters: tuple[tuple[int, int], ...]

    def __init__(self, letters: tuple[tuple[int, int], ...]):
        for _, sign in letters:
            if sign not in (1, -1):
                raise ValueError(f"twist sign must be +-1, got {sign}")
        super().__init__(letters)

    @classmethod
    def parse(cls, text: str) -> TwistWord:
        """
        Parse the command-line form: whitespace-separated letters "tK" or
        "tK^-1" with 1-based generator indices, rightmost applied first.

        >>> TwistWord.parse("t2 t1^-1 t4").letters
        ((1, 1), (0, -1), (3, 1))
        """
        letters: list[tuple[int, int]] = []
        for token in text.split():
            body = token
            sign = 1
            if "^" in token:
                body, power = token.split("^", 1)
                if power == "-1":
                    sign = -1
                elif power != "1":
                    raise ValueError(f"unsupported twist power in {token!r}")
            # isascii: isdigit alone accepts "²" and, like int(), "١".
            if not body.startswith("t") or not (body[1:].isascii() and body[1:].isdigit()):
                raise ValueError(f"bad twist letter {token!r}")
            letters.append((int(body[1:]) - 1, sign))
        return cls(tuple(letters))

    def __str__(self) -> str:
        return " ".join(
            f"t{g + 1}" if s == 1 else f"t{g + 1}^-1" for g, s in self.letters
        )


# -- moves on the algebra -----------------------------------------------------


def hurwitz_move(alg: LefschetzAlgebra, k: int) -> tuple[LefschetzAlgebra, LaurentMatrix]:
    """
    The elementary Hurwitz move at position k (0-based, 0 <= k <= m-2): the
    k-th cycle becomes the twist of its successor along it, the successor
    becomes the old k-th cycle. Returns the new algebra and the transition
    matrix C with new Seifert = C* S C; its block at (k, k) is
    [[-beta, 1], [1, 0]] with beta = S[k, k+1].
    """
    _checked("move position", k, alg.size - 1)
    beta = alg.seifert[k, k + 1]
    return _conjugate(alg, k, [[-beta, 1], [1, 0]])


def hurwitz_inverse_move(
    alg: LefschetzAlgebra, k: int
) -> tuple[LefschetzAlgebra, LaurentMatrix]:
    """
    The inverse of hurwitz_move at the same position: applying one after
    the other, in either order, restores the original algebra. Its
    transition matrix is the inverse of the forward one computed in the
    algebra the forward move would have come from; its block at (k, k) is
    [[0, 1], [1, -star(beta)]] with beta = S[k, k+1].
    """
    _checked("move position", k, alg.size - 1)
    beta = alg.seifert[k, k + 1]
    return _conjugate(alg, k, [[0, 1], [1, -beta.star()]])


def rescale_object(alg: LefschetzAlgebra, k: int, shift: int) -> LefschetzAlgebra:
    """
    Change the equivariant weight of the k-th object by `shift`. Pairings
    into it gain q^shift, pairings out of it q^-shift; on the intersection
    matrix this conjugates by diag(1, ..., q^shift, ..., 1) under the
    star-transpose on the left.
    """
    _checked("object index", k, alg.size)
    return _conjugate(alg, k, [[LaurentPoly.monomial(1, shift)]])[0]


def shift_object(alg: LefschetzAlgebra, k: int) -> LefschetzAlgebra:
    """
    Shift the grading of the k-th object: every pairing involving it once
    flips sign, its self-pairing is untouched. An involution.
    """
    _checked("object index", k, alg.size)
    return _conjugate(alg, k, [[-1]])[0]


def _conjugate(
    alg: LefschetzAlgebra, k: int, block: list[list[EntryLike]]
) -> tuple[LefschetzAlgebra, LaurentMatrix]:
    """
    The basis move by the elementary matrix C, the identity with `block`
    written at (k, k): returns the algebra of Seifert matrix C* S C, and C.

    C* S C differs from S only in the rows and columns the block covers:
    those columns of S C are the rows of S times the block's columns, and
    those rows of C* (S C) are the block's star-transposed rows times the
    block's rows of S C. So a move computes O(m) entries, each one kernel
    call, and copies the rest.
    """
    m, t = alg.size, len(block)
    rows = [[LaurentPoly.coerce(x) for x in row] for row in block]
    c = list(LaurentMatrix.identity(m).entries)
    for i, row in enumerate(rows):
        c[(k + i) * m + k : (k + i) * m + k + t] = row
    columns = list(zip(*rows))
    s = list(alg.seifert.entries)
    for i in range(0, m * m, m):
        part = s[i + k : i + k + t]  # one row of S in the block's columns
        s[i + k : i + k + t] = [_dot(part, column) for column in columns]
    sc_rows = s[k * m : (k + t) * m]
    for i, column in enumerate(columns):
        column_star = [x.star() for x in column]
        s[(k + i) * m : (k + i + 1) * m] = [
            _dot(column_star, sc_rows[j::m]) for j in range(m)
        ]
    seifert = LaurentMatrix(m, m, tuple(s))
    return LefschetzAlgebra.from_seifert(alg.dim, seifert), LaurentMatrix(m, m, tuple(c))


def _checked(what: str, k: int, count: int) -> None:
    """The one index rule: refuse a 0-based k outside range(count), naming it as typed, from 1."""
    if not 0 <= k < count:
        raise IndexError(f"{what} {k + 1} is not among 1..{max(count, 0)} (numbered from 1)")


# -- twists on classes --------------------------------------------------------


def dehn_twist_class(alg: LefschetzAlgebra, c0: KClass, c1: KClass) -> KClass:
    """
    The image of c1 in K-theory under the Dehn twist along c0 in `alg`:
    c1 - <c0, c1> c0, where <,> is alg.pairing. Pairing against any test
    class then drops by <test, c0><c0, c1>, whatever c0 is.
    """
    return c1 - c0.scale(alg.pairing(c0, c1))


def inverse_dehn_twist_class(alg: LefschetzAlgebra, c0: KClass, c1: KClass) -> KClass:
    """
    The image of c1 under the inverse Dehn twist along c0 in `alg`, of
    dimension n: c1 - (-1)^n q^-1 <c0, c1> c0. This is the unique class
    whose pairings against every test class carry the inverse-twist
    correction; linearity of the pairing in its second slot pins the
    scalar. When c0 is spherical in `alg`, this inverts dehn_twist_class on
    every class.
    """
    scalar = LaurentPoly.monomial(alg.parity_sign, -1) * alg.pairing(c0, c1)
    return c1 - c0.scale(scalar)


def apply_twist_word(
    alg: LefschetzAlgebra, generators: Sequence[KClass], word: TwistWord, target: KClass
) -> KClass:
    """
    Apply a word of signed Dehn twists in `alg` to `target`, rightmost
    letter first. The twisting objects are picked from `generators` by the
    letter's index; a letter beyond them is refused before any twist.
    """
    for gen, _ in word.letters:
        _checked("twist generator", gen, len(generators))
    result = target
    for gen, sign in reversed(word.letters):
        if sign == 1:
            result = dehn_twist_class(alg, generators[gen], result)
        else:
            result = inverse_dehn_twist_class(alg, generators[gen], result)
    return result
