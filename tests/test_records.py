"""
The immutable records of the package and its lazily resolved public names.

The five record classes share one frozen base in place of frozen
dataclasses; each must keep what the dataclass gave: field equality and
hashing, no assignment or deletion, and the Name(field=value, ...) repr.
"""

from __future__ import annotations

import importlib

import pytest

import qlefschetz
from qlefschetz.catalog import xab
from qlefschetz.laurent import q
from qlefschetz.lefschetz import LefschetzAlgebra
from qlefschetz.matrix import KClass, LaurentMatrix
from qlefschetz.moves import TwistWord
from qlefschetz.obstructions import SphereTestResult, Verdict

# class, its fields in order, a builder of one value, a builder of a value
# that differs from it in one field.
RECORDS = [
    (KClass, ("coords",), lambda: KClass([1, q]), lambda: KClass([1, q**2])),
    (
        LaurentMatrix,
        ("rows", "cols", "entries"),
        lambda: LaurentMatrix.from_rows([[1, q], [0, 1]]),
        lambda: LaurentMatrix.from_rows([[1, q], [0, -1]]),
    ),
    (
        LefschetzAlgebra,
        ("dim", "seifert", "intersection"),
        lambda: xab(3, 5, 3),
        lambda: LefschetzAlgebra(4, xab(3, 5, 3).seifert, xab(3, 5, 3).intersection),
    ),
    (
        TwistWord,
        ("letters",),
        lambda: TwistWord.parse("t2 t1^-1"),
        lambda: TwistWord.parse("t2 t1"),
    ),
    (
        SphereTestResult,
        ("verdict", "branch", "witness", "reason", "kernel", "self_pairings"),
        lambda: SphereTestResult(Verdict.INCONCLUSIVE, "kernel rank 2", reason="rank"),
        lambda: SphereTestResult(Verdict.INCONCLUSIVE, "kernel rank 2", reason="other"),
    ),
]


@pytest.mark.parametrize(
    "cls, fields, build, build_other", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_is_a_frozen_value(cls, fields, build, build_other):
    a, b, other = build(), build(), build_other()
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other
    assert sum(getattr(a, f) != getattr(other, f) for f in fields) == 1
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    values = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
    assert repr(a) == f"{cls.__name__}({values})"


def test_record_repr_and_construction():
    assert repr(TwistWord.parse("t2 t1^-1")) == "TwistWord(letters=((1, 1), (0, -1)))"
    assert repr(SphereTestResult(Verdict.OBSTRUCTED, "kernel rank 0")) == (
        "SphereTestResult(verdict=<Verdict.OBSTRUCTED: 'obstructed'>, "
        "branch='kernel rank 0', witness=None, reason=None, kernel=(), self_pairings=())"
    )
    kernel = (KClass([1, 1]),)
    by_keyword = SphereTestResult(branch="b", verdict=Verdict.OBSTRUCTED, kernel=kernel)
    assert by_keyword == SphereTestResult(Verdict.OBSTRUCTED, "b", None, None, kernel, ())
    for args, kwargs in [
        ((Verdict.OBSTRUCTED,), {}),  # branch missing
        ((Verdict.OBSTRUCTED, "b"), {"branch": "c"}),  # branch twice
        ((Verdict.OBSTRUCTED, "b"), {"colour": 1}),  # no such field
        ((Verdict.OBSTRUCTED, "b", None, None, (), (), 7), {}),  # one too many
    ]:
        with pytest.raises(TypeError):
            SphereTestResult(*args, **kwargs)


PUBLIC = {
    "ConsistencyError", "ExactDivisionError", "HypothesisError", "KClass", "LaurentMatrix",
    "LaurentPoly", "LefschetzAlgebra", "SphereTestResult", "TwistWord",
    "Verdict", "apply_twist_word", "betti_lower_bound", "dehn_twist_class", "gcd_many",
    "gram_pairing", "hurwitz_inverse_move", "hurwitz_move", "independence_certificate",
    "induced_total_space", "inverse_dehn_twist_class", "kernel_classes", "laurent_gcd",
    "milnor_ar", "mirror_p2", "nonzero_primitive_certificate", "q", "rescale_object",
    "self_pairing", "shift_object", "sphere_test", "spherical_value", "xab",
}
MODULES = ("catalog", "laurent", "lefschetz", "matrix", "moves", "obstructions")


def test_star_import_binds_the_home_objects():
    namespace: dict[str, object] = {}
    exec("from qlefschetz import *", namespace)
    assert set(qlefschetz.__all__) == PUBLIC
    assert set(namespace) - {"__builtins__"} == PUBLIC
    modules = [importlib.import_module(f"qlefschetz.{m}") for m in MODULES]
    for name in PUBLIC:
        homes = [m for m in modules if name in vars(m)]
        assert homes and all(vars(m)[name] is namespace[name] for m in homes), name
        assert getattr(qlefschetz, name) is namespace[name]
    assert PUBLIC <= set(dir(qlefschetz))


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        qlefschetz.no_such_name
    assert not hasattr(qlefschetz, "FrozenRecord")
