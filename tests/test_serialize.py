"""Interchange format: canonical bytes, roundtrips, malformed input."""

from __future__ import annotations

import json
import random
import re

import pytest

from qlefschetz.laurent import MAX_DIGITS, q
from qlefschetz.lefschetz import ConsistencyError, LefschetzAlgebra
from qlefschetz.matrix import KClass, LaurentMatrix
from qlefschetz.moves import TwistWord
from qlefschetz.serialize import (
    FileFormatError,
    class_specs_from_obj,
    classes_to_obj,
    dumps_canonical,
    fibration_from_obj,
    fibration_to_obj,
    kclass_from_obj,
    kclass_to_obj,
    matrix_from_obj,
    matrix_to_obj,
)

from oracles import band_matrix, rand_kclass, rand_matrix


def test_matrix_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(0, 4), rng.randint(1, 4))
        assert matrix_from_obj(matrix_to_obj(m)) == m


def test_kclass_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        v = rand_kclass(rng, rng.randint(1, 5))
        assert kclass_from_obj(kclass_to_obj(v)) == v


def test_fibration_roundtrip_and_labels():
    alg = LefschetzAlgebra.from_intersection(4, band_matrix(2, 3, 4))
    labels = ["c1", "c2", "c3", "c4", "c5"]
    obj = fibration_to_obj(alg, labels)
    parsed, parsed_labels = fibration_from_obj(obj)
    assert parsed == alg
    assert parsed_labels == labels
    # A Seifert-matrix file carries the same datum.
    seifert_obj = {"n": 4, "m": 5, "A": matrix_to_obj(alg.seifert)}
    parsed, none_labels = fibration_from_obj(seifert_obj)
    assert parsed == alg
    assert none_labels is None


def test_fibration_files_take_only_coefficients_the_loader_reads():
    # B = S - q S* for n = 4 holds -x q at (1, 0) and x at (0, 1).
    for x in (10**MAX_DIGITS - 1, -(10**MAX_DIGITS - 1), 10**MAX_DIGITS // 7):
        alg = LefschetzAlgebra.from_seifert(4, LaurentMatrix.from_rows([[1, x], [0, 1]]))
        assert fibration_from_obj(json.loads(dumps_canonical(fibration_to_obj(alg))))[0] == alg
    for x in (10**MAX_DIGITS, -(10**MAX_DIGITS)):
        alg = LefschetzAlgebra.from_seifert(4, LaurentMatrix.from_rows([[1, x], [0, 1]]))
        message = f"fibration.B.entries[0][1]: coefficient at exponent 0 has more than {MAX_DIGITS}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fibration_to_obj(alg)


def test_fibration_n_override():
    alg = LefschetzAlgebra.from_seifert(4, LaurentMatrix.from_rows([[1, q], [0, 1]]))
    obj = {"n": 4, "m": 2, "A": matrix_to_obj(alg.seifert)}
    overridden, _ = fibration_from_obj(obj, n_override=3)
    assert overridden.dim == 3
    assert overridden.intersection[1, 0] == q * q.star() * 1  # q * star(q) = 1


def test_fibration_schema_errors():
    alg = LefschetzAlgebra.from_seifert(4, LaurentMatrix.identity(2))
    good = fibration_to_obj(alg)
    for mutate in (
        lambda o: o.pop("n"),
        lambda o: o.pop("m"),
        lambda o: o.update(m=3),
        lambda o: o.update(A=o["B"]),
        lambda o: o.pop("B"),
        lambda o: o.update(labels=["just one"]),
        lambda o: o["B"]["entries"][0].append([[0, "1"]]),
    ):
        broken = json.loads(dumps_canonical(good))
        mutate(broken)
        with pytest.raises(FileFormatError):
            fibration_from_obj(broken)


def test_fibration_consistency_error_on_load():
    tampered = fibration_to_obj(
        LefschetzAlgebra.from_intersection(4, band_matrix(2, 3, 4))
    )
    tampered["B"]["entries"][0][0] = [[0, "1"], [1, "1"]]  # 1 + q on an even diagonal
    with pytest.raises(ConsistencyError) as info:
        fibration_from_obj(tampered)
    assert info.value.position == (0, 0)


def test_empty_fibration_is_valid():
    obj = {"n": 4, "m": 0, "B": {"rows": 0, "cols": 0, "entries": []}}
    alg, _ = fibration_from_obj(obj)
    assert alg.size == 0
    assert alg.intersection.det() == 1


def test_class_specs_parsing():
    generators = [KClass([1, 0]), KClass([0, 1])]
    obj = classes_to_obj(generators, [KClass([1, -1])])
    obj["classes"].append({"word": "t2 t1^-1", "seed": 1})
    parsed_gens, specs = class_specs_from_obj(obj)
    assert parsed_gens == generators
    assert specs[0] == KClass([1, -1])
    assert specs[1] == (TwistWord.parse("t2 t1^-1"), 0)
    with pytest.raises(FileFormatError):
        class_specs_from_obj({"classes": [{"word": "t1", "seed": 0}]})
    with pytest.raises(FileFormatError):
        class_specs_from_obj({"classes": [{}]})


UNIT_FILE = {"n": 4, "m": 1, "A": {"rows": 1, "cols": 1, "entries": [[[[0, "1"]]]]}}


def corner_file(coeff):
    """A 2 x 2 Seifert-matrix file whose entry (1, 2) is coeff * q."""
    entries = [[[[0, "1"]], [[1, coeff]]], [[], [[0, "1"]]]]
    return {"n": 4, "m": 2, "A": {"rows": 2, "cols": 2, "entries": entries}}


@pytest.mark.parametrize(
    "load, obj, field",
    [
        (fibration_from_obj, {**UNIT_FILE, "n": True}, "fibration.n"),
        (fibration_from_obj, {**UNIT_FILE, "m": True}, "fibration.m"),
        (fibration_from_obj, {**UNIT_FILE, "A": {**UNIT_FILE["A"], "rows": True}},
         "fibration.A.rows"),
        (fibration_from_obj, {**UNIT_FILE, "A": {**UNIT_FILE["A"], "cols": True}},
         "fibration.A.cols"),
        (matrix_from_obj, {"rows": True, "cols": True, "entries": [[[[0, "1"]]]]},
         "matrix.rows"),
        (class_specs_from_obj, {"classes": [{"word": "t1", "seed": True}]},
         "classes.classes[0].seed"),
        (fibration_from_obj, corner_file(True), "fibration.A.entries[0][1]"),
        (fibration_from_obj, corner_file(1.5), "fibration.A.entries[0][1]"),
        (fibration_from_obj, corner_file(2.0), "fibration.A.entries[0][1]"),
        (fibration_from_obj, corner_file(" 1_0"), "fibration.A.entries[0][1]"),
        (fibration_from_obj, corner_file("1_0"), "fibration.A.entries[0][1]"),
        (fibration_from_obj, corner_file(" 1"), "fibration.A.entries[0][1]"),
        (fibration_from_obj, corner_file("1\n"), "fibration.A.entries[0][1]"),
        (fibration_from_obj, corner_file("+1"), "fibration.A.entries[0][1]"),
        # Rejected before any dense storage is built for the window.
        (fibration_from_obj,
         {**UNIT_FILE, "A": {**UNIT_FILE["A"], "entries": [[[[0, "1"], [10**9, "1"]]]]}},
         "fibration.A.entries[0][0]"),
        # Each polynomial has a window of 0, but the gap between entries is huge.
        (fibration_from_obj,
         {"n": 4, "m": 3, "A": {"rows": 3, "cols": 3, "entries": [
             [[[0, "1"]], [[0, "1"]], [[10**9, "1"]]],
             [[], [[0, "1"]], [[0, "1"]]],
             [[], [], [[0, "1"]]],
         ]}},
         "fibration.A.entries[0][2]"),
    ],
    ids=[
        "n-bool", "m-bool", "rows-bool", "cols-bool", "matrix-bool", "seed-bool",
        "coeff-bool", "coeff-float", "coeff-integral-float", "coeff-space-underscore",
        "coeff-underscore", "coeff-leading-space", "coeff-trailing-newline", "coeff-plus",
        "exponent-window", "exponent-far-apart",
    ],
)
def test_loader_rejects_bools_floats_and_loose_numerals(load, obj, field):
    with pytest.raises(FileFormatError, match=re.escape(field + ":")):
        load(obj)


def test_dumps_canonical_is_deterministic():
    alg = LefschetzAlgebra.from_intersection(3, band_matrix(1, 2, 3))
    first = dumps_canonical(fibration_to_obj(alg))
    second = dumps_canonical(fibration_to_obj(xab_clone := alg))
    assert first == second
    assert xab_clone is alg
    assert first.endswith("\n")
    # Key order in the source dict must not matter.
    reordered = json.loads(first)
    assert dumps_canonical(dict(reversed(list(reordered.items())))) == first
