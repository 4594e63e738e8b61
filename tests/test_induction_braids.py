"""
The induction step intertwines the two braid actions (Picard-Lefschetz).

Let T be the total space induced from classes R = (c_1, ..., c_m) of a
fibre F, with S the fibre's Seifert matrix. A Hurwitz move on T is induced
by a Dehn twist of the classes in F:

  * hurwitz_move(T, k) is the induction from R with (c_k, c_(k+1))
    replaced by (dehn_twist_class(F, c_k, c_(k+1)), c_k);
  * hurwitz_inverse_move(T, k) is the induction from R with (c_k, c_(k+1))
    replaced by (c_(k+1), inverse_dehn_twist_class(F, c_(k+1), c_k)).

The two sides share only the ring and the algebra's constructors: one is
the local conjugation of the Seifert matrix, the other the twist formulas
in the fibre, the congruence R* S R and validation. The product
of the returned transition matrices carries R to the twisted classes,
R' = R C.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from qlefschetz.catalog import MIRROR_P2_WORDS, induced_total_space, milnor_ar
from qlefschetz.matrix import LaurentMatrix
from qlefschetz.moves import (
    TwistWord,
    apply_twist_word,
    dehn_twist_class,
    hurwitz_inverse_move,
    hurwitz_move,
    inverse_dehn_twist_class,
)

from oracles import sphere_sum_windows

def resolve(fibre, spheres, specs):
    """Each (word, seed) spec as a class: the word acting on that sphere."""
    return [apply_twist_word(fibre, spheres, word, spheres[seed]) for word, seed in specs]


@st.composite
def fibre_classes(draw):
    """A Milnor fibre and classes in it whose induction is a valid datum."""
    n = draw(st.sampled_from([3, 4]))
    kind = draw(st.sampled_from(["xab", "mirror", "words"]))
    if kind == "xab":
        a, b = draw(st.sampled_from([(1, 2), (2, 3), (2, 5), (3, 4)]))
        return milnor_ar(a + b - 1, n)[0], sphere_sum_windows(a, b, n)
    if kind == "mirror":
        fibre, spheres = milnor_ar(3, n)
        specs = [(TwistWord.parse(w), s) for w, s in MIRROR_P2_WORDS]
        return fibre, resolve(fibre, spheres, specs)
    r = draw(st.integers(1, 4))
    letters = st.tuples(st.integers(0, r), st.sampled_from([1, -1]))
    specs = st.tuples(st.lists(letters, max_size=3).map(tuple).map(TwistWord), st.integers(0, r))
    fibre, spheres = milnor_ar(r, n)
    return fibre, resolve(fibre, spheres, draw(st.lists(specs, min_size=2, max_size=4)))


def columns(classes) -> LaurentMatrix:
    """The matrix whose columns are the classes."""
    return LaurentMatrix.from_rows([list(row) for row in zip(*[c.coords for c in classes])])


@settings(deadline=None, max_examples=100)
@given(fibre_classes(), st.lists(st.tuples(st.integers(0, 10), st.booleans()), max_size=8))
def test_hurwitz_moves_are_induced_by_fibre_twists(data, braid):
    fibre, classes = data
    m = len(classes)
    total = induced_total_space(fibre, classes)
    start = columns(classes)
    product = LaurentMatrix.identity(m)
    for k, forward in braid:
        k %= m - 1
        c_k, c_next = classes[k], classes[k + 1]
        if forward:
            total, c = hurwitz_move(total, k)
            classes[k : k + 2] = [dehn_twist_class(fibre, c_k, c_next), c_k]
        else:
            total, c = hurwitz_inverse_move(total, k)
            twisted = inverse_dehn_twist_class(fibre, c_next, c_k)
            classes[k : k + 2] = [c_next, twisted]
        assert total == induced_total_space(fibre, classes), (k, forward)
        product = product @ c
        assert start @ product == columns(classes), (k, forward)
