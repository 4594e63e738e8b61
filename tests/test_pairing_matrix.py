"""
The pairing matrix of a list of classes, written once as the congruence
R* G R (matrix.pairing_matrix), against the pairwise oracles in
tests/oracles.py: one gram_pairing call per pair of classes, and the
independence certificate's Gram check one pair at a time.

Random pairing matrices and classes cover zero classes, dense classes,
negative valuations, no classes at all and more or fewer classes than the
matrix has rows; the catalog covers xab for m = 5..12, the mirror of the
plane in both parities and catalog induce with twist-word specs.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlefschetz.catalog import induced_total_space, milnor_ar, mirror_p2, xab
from qlefschetz.cli import main
from qlefschetz.laurent import LaurentPoly, q
from qlefschetz.lefschetz import LefschetzAlgebra
from qlefschetz.matrix import KClass, LaurentMatrix, pairing_matrix
from qlefschetz.moves import TwistWord, apply_twist_word
from qlefschetz.obstructions import HypothesisError, independence_certificate, kernel_classes
from qlefschetz.serialize import (
    class_specs_from_obj,
    dumps_canonical,
    fibration_from_obj,
    fibration_to_obj,
    kclass_to_obj,
)

from oracles import pairwise_independence_certificate, pairwise_pairing_matrix

bounded = settings(deadline=None, max_examples=60)

nonzero_polys = st.builds(
    lambda val, coeffs: LaurentPoly((val + i, c) for i, c in enumerate(coeffs)),
    st.integers(-3, 2),
    st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=4),
)
polys = st.just(LaurentPoly.zero()) | nonzero_polys


def classes_of(m: int):
    """Lists of up to 6 classes of length m: zero, dense or mixed."""
    one = st.one_of(
        st.just(KClass.zero(m)),
        st.lists(nonzero_polys, min_size=m, max_size=m).map(KClass),
        st.lists(polys, min_size=m, max_size=m).map(KClass),
    )
    return st.lists(one, max_size=6)


def grams_with_classes():
    def build(m: int):
        gram = st.lists(polys, min_size=m * m, max_size=m * m).map(
            lambda entries: LaurentMatrix(m, m, tuple(entries))
        )
        return st.tuples(gram, classes_of(m))

    return st.integers(0, 5).flatmap(build)


def four_by_four(k: int) -> tuple[LaurentMatrix, list[KClass]]:
    """A 4 x 4 pairing matrix and k classes, every third one zero."""
    gram = LaurentMatrix.from_rows(
        [[(i - j) * q ** (i - 2) + int(i == j) for j in range(4)] for i in range(4)]
    )
    classes = [
        KClass([q**-i, 0, 1 - q ** (k - i), -(q**-3)]) if i % 3 else KClass.zero(4)
        for i in range(k)
    ]
    return gram, classes


@bounded
@given(grams_with_classes())
@example(four_by_four(0))
@example(four_by_four(3))
@example(four_by_four(7))
def test_congruence_equals_the_pairwise_matrix(case):
    gram, classes = case
    expected = pairwise_pairing_matrix(gram, classes)
    assert pairing_matrix(gram, classes) == expected
    assert (expected.rows, expected.cols) == (len(classes), len(classes))


def test_a_class_of_the_wrong_length_raises():
    gram = milnor_ar(3, 4)[0].seifert
    good = KClass.basis_vector(4, 1)
    for classes in ([KClass.zero(3)], [good, KClass.zero(5)], [good, good, KClass([1])]):
        with pytest.raises(ValueError, match="has length"):
            pairing_matrix(gram, classes)
        with pytest.raises(ValueError):
            pairwise_pairing_matrix(gram, classes)
    alg = xab(1, 2, 3)
    with pytest.raises(ValueError):
        independence_certificate(alg, [KClass.zero(2)])


def xab_windows(a: int, b: int, n: int) -> tuple[LaurentMatrix, list[KClass]]:
    """The fibre's Mukai matrix and the window classes of the (a, b) family."""
    fibre, spheres = milnor_ar(a + b - 1, n)
    m = a + b
    windows = [sum((spheres[(i + s) % m] for s in range(1, a)), spheres[i]) for i in range(m)]
    return fibre.seifert, windows


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize(
    "a, b",
    [(a, m - a) for m in range(5, 13) for a in range(1, m) if a < m - a and math.gcd(a, m) == 1],
)
def test_xab_is_the_pairwise_matrix_of_its_windows(a, b, n):
    gram, windows = xab_windows(a, b, n)
    expected = pairwise_pairing_matrix(gram, windows)
    assert pairing_matrix(gram, windows) == expected
    assert xab(a, b, n).intersection == expected


@pytest.mark.parametrize("n", [3, 4])
def test_mirror_p2_is_the_pairwise_matrix_of_its_twisted_spheres(n):
    fibre, spheres = milnor_ar(3, n)
    twisted = [
        apply_twist_word(fibre, spheres, TwistWord.parse(word), spheres[seed])
        for word, seed in (("t2", 0), ("t2^-1 t1", 3), ("t3 t1", 1))
    ]
    expected = pairwise_pairing_matrix(fibre.seifert, twisted)
    assert pairing_matrix(fibre.seifert, twisted) == expected
    assert mirror_p2(n).intersection == expected


def induce_fixture() -> tuple[LefschetzAlgebra, list[KClass]]:
    """The A_4 fibre as a parity-3 datum, and its spheres as generators."""
    fibre, spheres = milnor_ar(4, 4)
    return fibre, list(spheres)


def resolve(fibre: LefschetzAlgebra, generators: list[KClass], specs) -> list[KClass]:
    return [
        spec if isinstance(spec, KClass)
        else apply_twist_word(fibre, generators, spec[0], generators[spec[1]])
        for spec in specs
    ]


letters = st.builds(
    lambda k, e: f"t{k}" + ("" if e == 1 else f"^{e}"), st.integers(1, 5), st.sampled_from([1, -1])
)
word_specs = st.lists(
    st.fixed_dictionaries(
        {"word": st.lists(letters, min_size=1, max_size=3).map(" ".join), "seed": st.integers(1, 5)}
    ),
    max_size=6,
)


@bounded
@given(word_specs)
def test_induce_with_word_specs_is_the_pairwise_matrix(entries):
    fibre, generators = induce_fixture()
    obj = {"generators": [kclass_to_obj(g) for g in generators], "classes": entries}
    parsed, specs = class_specs_from_obj(obj, 5)
    resolved = resolve(fibre, parsed, specs)
    expected = pairwise_pairing_matrix(fibre.seifert, resolved)
    assert pairing_matrix(fibre.seifert, resolved) == expected
    induced = induced_total_space(fibre, specs, parsed)
    assert induced == LefschetzAlgebra.from_intersection(4, expected)


def test_catalog_induce_command_writes_the_pairwise_matrix(tmp_path):
    fibre, generators = induce_fixture()
    fibre_path, classes_path = tmp_path / "fibre.json", tmp_path / "classes.json"
    fibre_path.write_text(dumps_canonical(fibration_to_obj(fibre)), encoding="utf-8")
    spec = {
        "generators": [kclass_to_obj(g) for g in generators],
        "classes": [{"word": f"t{(i + 1) % 4 + 1}", "seed": i + 1} for i in range(4)]
        + [{"word": "t2^-1 t1", "seed": 4}, {"vector": kclass_to_obj(generators[0])}],
    }
    classes_path.write_text(dumps_canonical(spec), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        argv = ["catalog", "induce", "--fibre", str(fibre_path), "--classes", str(classes_path)]
        assert main(argv + ["--format", "json"]) == 0
    induced, _ = fibration_from_obj(json.loads(out.getvalue()))
    _, specs = class_specs_from_obj(spec, 5)
    expected = pairwise_pairing_matrix(fibre.seifert, resolve(fibre, generators, specs))
    assert induced.intersection == expected


def certificate_message(certify, alg, classes) -> str | bool:
    try:
        return certify(alg, classes)
    except HypothesisError as exc:
        return str(exc)


def orthogonal_spheres() -> tuple[LefschetzAlgebra, list[KClass]]:
    """Two copies of the double cover of a point: orthogonal spherical classes."""
    b = 1 + q  # the intersection value 1 - (-1)^n q at n = 3
    seifert = LaurentMatrix.from_rows(
        [[1, b, 0, 0], [0, 1, 0, 0], [0, 0, 1, b], [0, 0, 0, 1]]
    )
    return LefschetzAlgebra.from_seifert(3, seifert), [
        KClass([-1, 1, 0, 0]), KClass([0, 0, -1, 1])
    ]


def failing_families() -> list[tuple[LefschetzAlgebra, list[KClass]]]:
    alg, spheres = orthogonal_spheres()
    cover, matching = xab(2, 3, 3).double_cover()
    band = xab(2, 3, 3)
    return [
        (alg, [spheres[0], spheres[0]]),
        (alg, [spheres[0], spheres[1], spheres[1]]),
        (cover, matching),
        (cover, [matching[0], matching[0]]),
        (band, [KClass.basis_vector(5, k) for k in range(5)]),
        (band, kernel_classes(band)),
        (alg, [spheres[1], spheres[0].scale(2)]),
    ]


FAILING = [
    "duplicate", "duplicate-after-a-good-pair", "non-orthogonal-spheres", "duplicate-sphere",
    "thimbles", "kernel-class", "non-spherical-last-diagonal",
]


@pytest.mark.parametrize("index", range(len(FAILING)), ids=FAILING)
def test_certificate_names_the_reference_first_bad_entry(index):
    alg, classes = failing_families()[index]
    message = certificate_message(independence_certificate, alg, classes)
    assert isinstance(message, str) and message.startswith("Gram entry")
    assert message == certificate_message(pairwise_independence_certificate, alg, classes)


def test_certificate_accepts_what_the_reference_accepts():
    alg, spheres = orthogonal_spheres()
    for classes in ([], spheres[:1], spheres, spheres[::-1]):
        assert independence_certificate(alg, classes) is True
        assert pairwise_independence_certificate(alg, classes) is True


@bounded
@given(st.lists(st.integers(0, 3), max_size=4), polys)
def test_certificate_agrees_with_the_reference_on_drawn_families(picks, f):
    alg, spheres = orthogonal_spheres()
    pool = spheres + [spheres[0].scale(f), KClass.basis_vector(4, 2)]
    classes = [pool[i] for i in picks]
    assert certificate_message(independence_certificate, alg, classes) == certificate_message(
        pairwise_independence_certificate, alg, classes
    )
