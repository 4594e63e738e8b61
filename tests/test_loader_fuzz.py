"""
Fuzzing the file loaders: fibration_from_obj, class_specs_from_obj and
matrix_from_obj, on arbitrary JSON values and on mutations of valid files.

Every input must end in a value or in a ValueError (FileFormatError and
ConsistencyError are ValueErrors), which the command line maps to exit 2 or
1. Any other exception would surface as a traceback.
"""

from __future__ import annotations

import json
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from qlefschetz.catalog import mirror_p2, xab
from qlefschetz.matrix import KClass
from qlefschetz.serialize import (
    class_specs_from_obj,
    classes_to_obj,
    fibration_from_obj,
    fibration_to_obj,
    matrix_from_obj,
    matrix_to_obj,
)

bounded = settings(deadline=None, max_examples=100)

LOADERS = (fibration_from_obj, partial(class_specs_from_obj, size=3), matrix_from_obj)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-3, 3),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["1", "-1", "0", "t1", "t2 t1^-1", "A", "B", "n", "m"]),
)
json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.sampled_from(["n", "m", "A", "B", "rows", "cols", "entries", "labels",
                             "classes", "generators", "vector", "word", "seed"])
            | st.text(max_size=4),
            children,
            max_size=5,
        ),
    ),
    max_leaves=20,
)


def load_all(obj):
    for load in LOADERS:
        try:
            load(obj)
        except ValueError:
            pass


@bounded
@given(json_values)
def test_loaders_on_arbitrary_json(obj):
    load_all(obj)


def _wire(obj):
    return json.loads(json.dumps(obj))


VALID_FILES = [
    _wire(fibration_to_obj(xab(1, 2, 4))),
    _wire(fibration_to_obj(mirror_p2(3), ["a", "b", "c"])),
    _wire({"n": 3, "m": 3, "A": matrix_to_obj(xab(1, 2, 3).seifert)}),
    _wire(fibration_to_obj(xab(1, 2, 3))["B"]),
    _wire({
        **classes_to_obj([KClass([1, 0, 0]), KClass([0, 1, 0])], [KClass([1, -1, 0])]),
        "classes": [{"vector": [[[0, "1"]], [], [[1, "-2"]]]}, {"word": "t2 t1^-1", "seed": 1}],
    }),
]


def _paths(obj, prefix=()):
    """Every path to a value nested in a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_files(draw):
    obj = _wire(draw(st.sampled_from(VALID_FILES)))
    for _ in range(draw(st.integers(1, 3))):
        # A depth first, then a path of that depth: every level of the schema
        # (file, matrix, row, entry, pair, scalar) is hit about equally often.
        paths = list(_paths(obj))
        if not paths:
            break
        depth = draw(st.sampled_from(sorted({len(p) for p in paths})))
        path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["scalar", "replace", "delete", "wrap", "duplicate"]))
        if action == "scalar":
            parent[key] = draw(scalars)
        elif action == "replace":
            parent[key] = draw(json_values)
        elif action == "delete":
            del parent[key]
        elif action == "wrap":
            parent[key] = [parent[key]]
        elif isinstance(parent, list):
            parent.insert(key, parent[key])
    return obj


@bounded
@given(mutated_files())
def test_loaders_on_mutated_files(obj):
    load_all(obj)


DELETE = object()


def test_every_single_substitution():
    """Each value of each valid file replaced in turn by each of a few values, or deleted."""
    for valid in VALID_FILES:
        for path in _paths(valid):
            for value in (None, True, 0, -1, 1.5, "x", [], {}, [None], DELETE):
                obj = _wire(valid)
                parent = obj
                for key in path[:-1]:
                    parent = parent[key]
                if value is DELETE:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
                load_all(obj)


def test_valid_files_load():
    fibration_from_obj(VALID_FILES[0])
    fibration_from_obj(VALID_FILES[1])
    fibration_from_obj(VALID_FILES[2])
    matrix_from_obj(VALID_FILES[3])
    class_specs_from_obj(VALID_FILES[4], 3)
