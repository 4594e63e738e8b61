"""
Exact q-deformed intersection calculus for Lefschetz fibrations.

The coefficient ring is Z[q, q^-1] with arbitrary-precision integers; all
linear algebra is fraction-free and every comparison in the package and
its test suite is exact.

The public names below resolve lazily (PEP 562): each is imported from its
home module on first access, so importing the package, or one module of it
as the qlef command does, loads no other module.
"""

import importlib

_EXPORTS = {
    "catalog": ("induced_total_space", "milnor_ar", "mirror_p2", "xab"),
    "laurent": ("ExactDivisionError", "LaurentPoly", "gcd_many", "laurent_gcd", "q"),
    "lefschetz": ("ConsistencyError", "LefschetzAlgebra"),
    "matrix": ("KClass", "LaurentMatrix", "gram_pairing"),
    "moves": (
        "TwistWord", "apply_twist_word", "dehn_twist_class", "hurwitz_inverse_move",
        "hurwitz_move", "inverse_dehn_twist_class", "rescale_object", "shift_object",
    ),
    "obstructions": (
        "HypothesisError", "SphereTestResult", "Verdict", "betti_lower_bound",
        "independence_certificate", "kernel_classes", "nonzero_primitive_certificate",
        "self_pairing", "sphere_test", "spherical_value",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
