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
    its inverse, and words in such twists.

Hurwitz moves return the transition matrix C alongside the new algebra so
that callers can transport classes between the two bases.
"""

from __future__ import annotations

from .laurent import LaurentPoly
from .lefschetz import LefschetzAlgebra, parity_sign
from .matrix import EntryLike, FrozenRecord, KClass, LaurentMatrix, gram_pairing


class TwistWord(FrozenRecord):
    """
    A word in signed twist generators, e.g. ((1, +1), (0, -1)) for
    "t2 t1^-1". Letters are stored in written order, 0-based, and applied
    right to left, so the last letter acts first.
    """

    __slots__ = ("letters",)
    letters: tuple[tuple[int, int], ...]

    def __init__(self, letters: tuple[tuple[int, int], ...]):
        for gen, sign in letters:
            if sign not in (1, -1):
                raise ValueError(f"twist sign must be +-1, got {sign}")
            if gen < 0:
                raise ValueError(f"generator index {gen} is negative")
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
            index = int(body[1:])
            if index < 1:
                raise ValueError(f"twist letters are numbered from 1, got {token!r}")
            letters.append((index - 1, sign))
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
    _checked_position(alg, k)
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
    _checked_position(alg, k)
    beta = alg.seifert[k, k + 1]
    return _conjugate(alg, k, [[0, 1], [1, -beta.star()]])


def rescale_object(alg: LefschetzAlgebra, k: int, shift: int) -> LefschetzAlgebra:
    """
    Change the equivariant weight of the k-th object by `shift`. Pairings
    into it gain q^shift, pairings out of it q^-shift; on the intersection
    matrix this conjugates by diag(1, ..., q^shift, ..., 1) under the
    star-transpose on the left.
    """
    _checked_index(alg, k)
    return _conjugate(alg, k, [[LaurentPoly.monomial(1, shift)]])[0]


def shift_object(alg: LefschetzAlgebra, k: int) -> LefschetzAlgebra:
    """
    Shift the grading of the k-th object: every pairing involving it once
    flips sign, its self-pairing is untouched. An involution.
    """
    _checked_index(alg, k)
    return _conjugate(alg, k, [[-1]])[0]


def _conjugate(
    alg: LefschetzAlgebra, k: int, block: list[list[EntryLike]]
) -> tuple[LefschetzAlgebra, LaurentMatrix]:
    """
    The basis move by the elementary matrix C, the identity with `block`
    written at (k, k): returns the algebra of Seifert matrix C* S C, and C.
    """
    rows: list[list[EntryLike]] = LaurentMatrix.identity(alg.size).to_rows()
    for i, row in enumerate(block):
        rows[k + i][k : k + len(row)] = row
    c = LaurentMatrix.from_rows(rows)
    return LefschetzAlgebra.from_seifert(alg.dim, c.star_transpose() @ alg.seifert @ c), c


def _checked_position(alg: LefschetzAlgebra, k: int) -> None:
    if not 0 <= k <= alg.size - 2:
        raise IndexError(f"move position {k} out of range for {alg.size} cycles")


def _checked_index(alg: LefschetzAlgebra, k: int) -> None:
    if not 0 <= k < alg.size:
        raise IndexError(f"object index {k} out of range for {alg.size} cycles")


# -- twists on classes --------------------------------------------------------


def dehn_twist_class(gram: LaurentMatrix, c0: KClass, c1: KClass) -> KClass:
    """
    The image of c1 in K-theory under the Dehn twist along c0:
    c1 - <c0, c1> c0, where <,> is the pairing defined by `gram`. Pairing
    against any test class then drops by <test, c0><c0, c1>, whatever c0 is.
    """
    return c1 - c0.scale(gram_pairing(gram, c0, c1))


def inverse_dehn_twist_class(
    dim: int, gram: LaurentMatrix, c0: KClass, c1: KClass
) -> KClass:
    """
    The image of c1 under the inverse Dehn twist along c0 in an ambient
    space of complex dimension `dim`: c1 - (-1)^n q^-1 <c0, c1> c0. This is
    the unique class whose pairings against every test class carry the
    inverse-twist correction; linearity of the pairing in its second slot
    pins the scalar. When c0 is spherical for the same parity, this inverts
    dehn_twist_class on every class.
    """
    scalar = LaurentPoly.monomial(parity_sign(dim), -1) * gram_pairing(gram, c0, c1)
    return c1 - c0.scale(scalar)


def apply_twist_word(
    dim: int,
    gram: LaurentMatrix,
    generators: list[KClass],
    word: TwistWord,
    target: KClass,
) -> KClass:
    """
    Apply a word of signed Dehn twists to `target`, rightmost letter first.
    The twisting objects are picked from `generators` by the letter's index.
    """
    result = target
    for gen, sign in reversed(word.letters):
        if gen >= len(generators):
            raise IndexError(
                f"twist letter t{gen + 1} exceeds the {len(generators)} generators"
            )
        if sign == 1:
            result = dehn_twist_class(gram, generators[gen], result)
        else:
            result = inverse_dehn_twist_class(dim, gram, generators[gen], result)
    return result
