"""
The canonical writer renders exactly json.dumps(obj, indent=2,
sort_keys=True) + "\\n": on arbitrary JSON values and on the files and move
reports of random fibrations. Integers beyond the interpreter's int/str
digit limit, which json.dumps refuses, are written in full. A value already
rendered and embedded as Rendered text gives the bytes of rendering it in
place, at any depth.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from qlefschetz.laurent import LaurentPoly
from qlefschetz.lefschetz import LefschetzAlgebra
from qlefschetz.matrix import LaurentMatrix
from qlefschetz.moves import hurwitz_inverse_move, hurwitz_move
from qlefschetz.serialize import Rendered, dumps_canonical, fibration_to_obj, matrix_to_obj

bounded = settings(deadline=None, max_examples=200)

AWKWARD = ['"', "\\", "/", "\n", "\r\t\b\f", "\x00", "\x1f", "\x7f", "é", " ",
           "\U0001f600", "\ud800", "", " ", "1", "-0"]

strings = st.text() | st.sampled_from(AWKWARD) | st.lists(st.sampled_from(AWKWARD)).map("".join)
integers = st.integers() | st.integers(-(10**4000), 10**4000) | st.sampled_from(
    [0, -1, -(10**4299) + 1, 10**4299 - 1, -(2**63), 2**64]
)
scalars = st.none() | st.booleans() | integers | strings
# [exponent, coefficient] pairs and near misses of that shape.
pairs = st.tuples(st.integers() | st.booleans(), strings | integers).map(list)
json_values = st.recursive(
    scalars | pairs,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(strings, children, max_size=5),
    max_leaves=30,
)


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@bounded
@given(json_values)
def test_writer_matches_json_dumps(obj):
    assert dumps_canonical(obj) == reference(obj)


@st.composite
def embeddings(draw):
    """A JSON value v nested at random depth among siblings, once as it is
    and once as Rendered(dumps_canonical(v)[:-1])."""
    v = draw(json_values)
    plain, embedded = v, Rendered(dumps_canonical(v)[:-1])
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            siblings = draw(st.lists(json_values, max_size=2))
            at = draw(st.integers(0, len(siblings)))
            plain = siblings[:at] + [plain] + siblings[at:]
            embedded = siblings[:at] + [embedded] + siblings[at:]
        else:
            key = draw(strings)
            siblings = draw(st.dictionaries(strings, json_values, max_size=2))
            siblings.pop(key, None)
            plain, embedded = {**siblings, key: plain}, {**siblings, key: embedded}
    return plain, embedded


@settings(deadline=None, max_examples=100)
@given(embeddings())
def test_an_embedded_rendering_gives_the_same_bytes(pair):
    plain, embedded = pair
    assert dumps_canonical(embedded) == dumps_canonical(plain)


def test_writer_matches_json_dumps_on_edge_values():
    for obj in ([], {}, [[]], [{}], {"": []}, [[0, "1"]], [[0, "1"], []], [[True, "1"]],
                [[0, 1]], [["0", "1"]], [[0, "1", 2]], {"\n\"": {"é": None}}, -(10**4000)):
        assert dumps_canonical(obj) == reference(obj)


def test_writer_writes_integers_beyond_the_int_str_limit():
    assert dumps_canonical({"x": [-(10**5000)]}) == '{\n  "x": [\n    -1' + "0" * 5000 + "\n  ]\n}\n"


polys = st.dictionaries(st.integers(-4, 4), st.integers(-(10**30), 10**30), max_size=4).map(
    LaurentPoly
)


@st.composite
def fibrations(draw):
    m = draw(st.integers(1, 5))
    seifert = LaurentMatrix.from_rows(
        [[1 if i == j else draw(polys) if i < j else 0 for j in range(m)] for i in range(m)]
    )
    labels = draw(st.none() | st.lists(strings, min_size=m, max_size=m))
    return LefschetzAlgebra.from_seifert(draw(st.integers(3, 4)), seifert), labels


@settings(deadline=None, max_examples=60)
@given(fibrations(), st.data())
def test_writer_matches_json_dumps_on_fibrations_and_move_reports(fibration, data):
    alg, labels = fibration
    artifact = fibration_to_obj(alg, labels)
    assert dumps_canonical(artifact) == reference(artifact)
    if alg.size < 2:
        return
    k = data.draw(st.integers(0, alg.size - 2))
    move, kind = data.draw(
        st.sampled_from([(hurwitz_move, "hurwitz"), (hurwitz_inverse_move, "hurwitz-inverse")])
    )
    moved, transition = move(alg, k)
    report = {
        "move": kind,
        "k": k + 1,
        "fibration": fibration_to_obj(moved, labels),
        "transition": matrix_to_obj(transition),
    }
    assert dumps_canonical(report) == reference(report)
