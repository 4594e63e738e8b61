"""End-to-end command-line behaviour, driven through cli.main()."""

from __future__ import annotations

import json
from collections import Counter

import pytest

import qlefschetz.cli as cli
from qlefschetz.catalog import milnor_ar, mirror_p2, xab
from qlefschetz.cli import main
from qlefschetz.laurent import MAX_DIGITS, LaurentPoly, q
from qlefschetz.lefschetz import LefschetzAlgebra
from qlefschetz.matrix import LaurentMatrix
from qlefschetz.serialize import Rendered, dumps_canonical, fibration_to_obj, poly_to_obj

from oracles import CLASSICAL_23_INTERSECTION, CLASSICAL_23_SEIFERT


def write_xab(tmp_path, a=2, b=3, n=4):
    path = tmp_path / f"xab_{a}_{b}_{n}.json"
    path.write_text(dumps_canonical(fibration_to_obj(xab(a, b, n))), encoding="utf-8")
    return path


def run(capsys, argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out) if out else None


def test_verify_valid_file(tmp_path, capsys):
    path = write_xab(tmp_path)
    code, report = run_json(capsys, ["verify", path])
    assert code == 0
    assert report["consistent"] is True
    assert report["m"] == 5 and report["n"] == 4


def test_verify_tampered_entry(tmp_path, capsys):
    obj = fibration_to_obj(xab(2, 3, 4))
    obj["B"]["entries"][0][0] = [[0, "1"], [1, "1"]]
    path = tmp_path / "tampered.json"
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "(1, 1)" in err


def test_verify_empty_datum(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(
        dumps_canonical({"n": 4, "m": 0, "B": {"rows": 0, "cols": 0, "entries": []}}),
        encoding="utf-8",
    )
    code, report = run_json(capsys, ["verify", path])
    assert code == 0
    assert report["m"] == 0


def test_verify_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err


def test_verify_missing_file(capsys):
    assert main(["verify", "/no/such/file.json"]) == 2


def test_compute_det_mirror_even(tmp_path, capsys):
    path = tmp_path / "mirror.json"
    path.write_text(dumps_canonical(fibration_to_obj(mirror_p2(4))), encoding="utf-8")
    code, report = run_json(capsys, ["compute", "det", path])
    assert code == 0
    stated = q**-2 * (q - 1) ** 3 * (q + 1) ** 2 * (q**2 + 1)
    assert report["det"] == poly_to_obj(stated)


def test_compute_nullspace(tmp_path, capsys):
    path = write_xab(tmp_path)
    code, report = run_json(capsys, ["compute", "nullspace", path])
    assert code == 0
    assert report["nullspace"] == [[[[0, "1"]]] * 5]


def test_compute_classical(tmp_path, capsys):
    path = write_xab(tmp_path)
    code, report = run_json(capsys, ["compute", "classical", path])
    assert code == 0
    assert report["seifert"] == CLASSICAL_23_SEIFERT
    assert report["intersection"] == CLASSICAL_23_INTERSECTION


def test_compute_monodromy_and_givental(tmp_path, capsys):
    path = write_xab(tmp_path)
    code, monodromy = run_json(capsys, ["compute", "monodromy", path])
    assert code == 0
    assert monodromy["monodromy"]["rows"] == 5
    code, givental = run_json(capsys, ["compute", "givental", path])
    assert code == 0
    assert givental["givental"]["entries"][0][0] == poly_to_obj(1 - q)


def test_compute_double_cover(tmp_path, capsys):
    path = write_xab(tmp_path, 1, 2, 3)
    code, report = run_json(capsys, ["compute", "double-cover", path])
    assert code == 0
    assert report["fibration"]["m"] == 6
    assert len(report["matching_classes"]) == 3


def test_compute_double_cover_output_verifies(tmp_path, capsys):
    path = write_xab(tmp_path)
    cover_path = tmp_path / "cover.json"
    code, _ = run(capsys, ["compute", "double-cover", path, "--output", cover_path])
    assert code == 0
    code, report = run_json(capsys, ["verify", cover_path])
    assert code == 0
    assert report["m"] == 10


def test_obstruct_band_family(tmp_path, capsys):
    path = write_xab(tmp_path, 2, 3, 3)
    code, report = run_json(capsys, ["obstruct", path])
    assert code == 0
    assert report["verdict"] == "obstructed"
    assert report["kernel_rank"] == 1
    assert report["generators"][0]["betti_lower_bound"] == 12


def test_obstruct_full_rank(tmp_path, capsys):
    path = tmp_path / "mirror.json"
    path.write_text(dumps_canonical(fibration_to_obj(mirror_p2(3))), encoding="utf-8")
    code, report = run_json(capsys, ["obstruct", path])
    assert code == 0
    assert report["verdict"] == "obstructed"
    assert report["branch"] == "kernel rank 0"
    assert report["kernel_rank"] == 0


# Block-diagonal doubling of the rank-one positive control: a rank-2 kernel.
DOUBLED_CONTROL = {
    "n": 3,
    "m": 4,
    "A": {
        "rows": 4,
        "cols": 4,
        "entries": [
            [[[0, "1"]], [[0, "1"], [1, "1"]], [], []],
            [[], [[0, "1"]], [], []],
            [[], [], [[0, "1"]], [[0, "1"], [1, "1"]]],
            [[], [], [], [[0, "1"]]],
        ],
    },
}


def test_obstruct_inconclusive_synthetic(tmp_path, capsys):
    path = tmp_path / "doubled.json"
    path.write_text(dumps_canonical(DOUBLED_CONTROL), encoding="utf-8")
    code, report = run_json(capsys, ["obstruct", path])
    assert code == 0
    assert report["verdict"] == "inconclusive"
    assert report["kernel_rank"] == 2


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_obstruct_computes_each_invariant_once(tmp_path, capsys, monkeypatch, fmt):
    # The report only formats what sphere_test returns: one nullspace per
    # command and one self-pairing (one pairing call) per kernel generator.
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(LaurentMatrix, "nullspace", counting("nullspace", LaurentMatrix.nullspace))
    monkeypatch.setattr(LefschetzAlgebra, "pairing", counting("pairing", LefschetzAlgebra.pairing))
    doubled = tmp_path / "doubled.json"
    doubled.write_text(dumps_canonical(DOUBLED_CONTROL), encoding="utf-8")
    for path, rank in ((write_xab(tmp_path, 2, 3, 3), 1), (doubled, 2)):
        counts.clear()
        assert main(["obstruct", str(path), "--format", fmt]) == 0
        assert counts == {"nullspace": 1, "pairing": rank}


def test_move_roundtrip_bytes(tmp_path, capsys):
    path = write_xab(tmp_path)
    moved = tmp_path / "moved.json"
    back = tmp_path / "back.json"
    code, _ = run(capsys, ["move", path, "hurwitz", "--k", 2, "--output", moved])
    assert code == 0
    code, _ = run(capsys, ["move", moved, "hurwitz-inverse", "--k", 2, "--output", back])
    assert code == 0
    assert back.read_bytes() == path.read_bytes()


def test_move_reports_transition(tmp_path, capsys):
    path = write_xab(tmp_path)
    code, report = run_json(capsys, ["move", path, "hurwitz", "--k", 1])
    assert code == 0
    assert "transition" in report
    assert report["transition"]["entries"][0][0] == poly_to_obj(-(1 + q))


def test_move_rescale_and_shift_entries(tmp_path, capsys):
    path = write_xab(tmp_path)
    code, report = run_json(
        capsys, ["move", path, "rescale", "--k", 1, "--amount", 1]
    )
    assert code == 0
    entry = report["fibration"]["B"]["entries"][0][1]
    assert entry == poly_to_obj(q**-1 * (1 + q))
    code, report = run_json(capsys, ["move", path, "shift", "--k", 1])
    assert code == 0
    assert report["fibration"]["B"]["entries"][0][1] == poly_to_obj(-(1 + q))


def test_move_writes_only_files_it_can_read(tmp_path, capsys):
    # Rescaling e_2 by q^a puts q^-(a+1) and q^(a+1) into B, and the loader
    # takes exponents up to 32768 in absolute value.
    path = write_xab(tmp_path)
    moved = tmp_path / "moved.json"
    argv = ["move", path, "rescale", "--k", 1, "--output", moved, "--amount"]
    code, _ = run(capsys, argv + [32767])
    assert code == 0
    code, report = run_json(capsys, ["verify", moved])
    assert code == 0 and report["consistent"] is True
    moved.unlink()
    code = main([str(a) for a in argv + [40000]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "fibration.B.entries[0][1]: exponent -40000 exceeds 32768" in captured.err
    assert not moved.exists()


def test_move_bad_position(tmp_path, capsys):
    path = write_xab(tmp_path)
    assert main(["move", str(path), "hurwitz", "--k", "5"]) == 2


def test_twist_basis_target(tmp_path, capsys):
    # In the double cover of the single-cycle datum, twisting the lift of
    # the second thimble along the matching sphere reflects its class.
    path = write_xab(tmp_path)
    code, report = run_json(capsys, ["twist", path, "t1", "--target-index", 2])
    assert code == 0
    # Twist of e2 along e1 subtracts the Seifert entry (1 + q) times e1.
    assert report["class"][0] == poly_to_obj(-(1 + q))
    assert report["class"][1] == poly_to_obj(LaurentPoly.one())


def test_twist_with_generator_file(tmp_path, capsys):
    fibre = tmp_path / "fibre.json"
    classes = tmp_path / "classes.json"
    code, _ = run(
        capsys,
        [
            "catalog",
            "milnor",
            "--r",
            3,
            "--n",
            4,
            "--output",
            fibre,
            "--classes-output",
            classes,
        ],
    )
    assert code == 0
    # The word t2 applied to the first sphere gives the two-step window
    # class: the sum of the first two sphere classes.
    sphere = milnor_ar(3, 4).sphere_classes
    target = tmp_path / "target.json"
    target.write_text(
        dumps_canonical({"vector": [poly_to_obj(c) for c in sphere[0].coords]}),
        encoding="utf-8",
    )
    code, report = run_json(
        capsys,
        [
            "twist",
            fibre,
            "t2",
            "--target-file",
            target,
            "--generators-file",
            classes,
        ],
    )
    assert code == 0
    expected = sphere[0] + sphere[1]
    assert report["class"] == [poly_to_obj(c) for c in expected.coords]


def test_catalog_xab_and_induce_agree(tmp_path, capsys):
    fibre = tmp_path / "fibre.json"
    classes = tmp_path / "classes.json"
    code, _ = run(
        capsys,
        [
            "catalog", "milnor", "--r", 4, "--n", 4,
            "--output", fibre, "--classes-output", classes,
        ],
    )
    assert code == 0
    # Window classes written as words: the i-th cycle is t(i+1) applied to
    # the i-th sphere, cyclically.
    spec = json.loads(classes.read_text(encoding="utf-8"))
    spec["classes"] = [
        {"word": f"t{(i % 5) + 2 if i < 4 else 1}", "seed": i + 1} for i in range(5)
    ]
    classes.write_text(dumps_canonical(spec), encoding="utf-8")
    induced = tmp_path / "induced.json"
    code, _ = run(
        capsys,
        [
            "catalog", "induce", "--fibre", fibre, "--classes", classes,
            "--n", 4, "--output", induced,
        ],
    )
    assert code == 0
    direct = tmp_path / "direct.json"
    code, _ = run(
        capsys,
        ["catalog", "xab", "--a", 2, "--b", 3, "--n", 4, "--output", direct],
    )
    assert code == 0
    assert induced.read_bytes() == direct.read_bytes()


def write_induce_inputs(tmp_path, capsys, classes, generators=None):
    """
    A type-A_4 fibre file and a classes file whose generators are its
    spheres, or the given ones.
    """
    fibre = tmp_path / "fibre.json"
    spec = tmp_path / "classes.json"
    argv = ["catalog", "milnor", "--r", 4, "--n", 4, "--output", fibre]
    assert run(capsys, argv + ["--classes-output", spec])[0] == 0
    obj = json.loads(spec.read_text(encoding="utf-8"))
    obj["classes"] = classes
    if generators is not None:
        obj["generators"] = generators
    spec.write_text(dumps_canonical(obj), encoding="utf-8")
    return ["catalog", "induce", "--fibre", fibre, "--classes", spec, "--n", 4]


def test_catalog_induce_rejects_seed_beyond_generators(tmp_path, capsys):
    argv = write_induce_inputs(tmp_path, capsys, [{"word": "t1", "seed": 6}])
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "seed 6" in err


def test_catalog_induce_names_malformed_word(tmp_path, capsys):
    classes = [{"word": "t2", "seed": 1}, {"word": "t2 x1", "seed": 2}]
    argv = write_induce_inputs(tmp_path, capsys, classes)
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "classes.classes[1].word" in err


FIRST_SPHERE = [poly_to_obj(c) for c in milnor_ar(4, 4).sphere_classes[0].coords]


@pytest.mark.parametrize(
    "classes, generators, message",
    [
        ([{"word": "t1", "seed": 1}], [FIRST_SPHERE, [[[0, "1"]]]], "generator 2 has length 1"),
        ([{"word": "t2", "seed": 1}, {"vector": [[[0, "1"]]]}], None, "class 2 has length 1"),
    ],
    ids=["generator", "class"],
)
def test_catalog_induce_names_entry_of_wrong_length(
    tmp_path, capsys, classes, generators, message
):
    argv = write_induce_inputs(tmp_path, capsys, classes, generators)
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err


@pytest.mark.parametrize("family", ["xab", "mirror-p2", "induce"])
def test_catalog_output_is_the_json_report_rendered_once(tmp_path, capsys, monkeypatch, family):
    """These commands' report is the fibration file itself: one rendering
    goes to stdout and to --output."""
    if family == "induce":
        argv = write_induce_inputs(tmp_path, capsys, [{"word": "t2 t1", "seed": 3}])
    else:
        argv = ["catalog", family, "--n", 4] + (["--a", 3, "--b", 5] if family == "xab" else [])
    renders = []

    def counting(obj):
        renders.append(obj)
        return dumps_canonical(obj)

    monkeypatch.setattr(cli, "dumps_canonical", counting)
    out = tmp_path / "out.json"
    code, stdout = run(capsys, argv + ["--output", out])
    assert code == 0
    assert out.read_text(encoding="utf-8") == stdout
    assert len(renders) == 1


@pytest.mark.parametrize("command", ["move", "double-cover", "milnor"])
def test_output_artifact_is_rendered_once(tmp_path, capsys, monkeypatch, command):
    """With --output the artifact is rendered once, written to the file and
    embedded in the report as that text; stdout is unchanged by --output."""
    path = write_xab(tmp_path, 3, 5, 3)
    argv = {
        "move": ["move", path, "hurwitz", "--k", 2],
        "double-cover": ["compute", "double-cover", path],
        "milnor": ["catalog", "milnor", "--r", 4, "--n", 4],
    }[command]
    _, plain = run(capsys, argv)
    renders = []

    def counting(obj):
        renders.append(obj)
        return dumps_canonical(obj)

    monkeypatch.setattr(cli, "dumps_canonical", counting)
    out = tmp_path / "out.json"
    code, stdout = run(capsys, argv + ["--output", out])
    assert code == 0
    assert stdout == plain
    assert out.read_text(encoding="utf-8") == dumps_canonical(json.loads(stdout)["fibration"])
    assert len(renders) == 2
    assert isinstance(renders[1]["fibration"], Rendered)


def test_catalog_mirror_p2(tmp_path, capsys):
    code, report = run_json(capsys, ["catalog", "mirror-p2", "--n", 4])
    assert code == 0
    assert report["m"] == 3
    assert report["B"]["entries"][0][1] == poly_to_obj(-(q**-1) - 1 - q)


def test_deterministic_output(tmp_path, capsys):
    path = write_xab(tmp_path)
    _, first = run(capsys, ["compute", "det", path])
    _, second = run(capsys, ["compute", "det", path])
    assert first == second


def test_table_format(tmp_path, capsys):
    path = write_xab(tmp_path)
    code, out = run(capsys, ["verify", path, "--format", "table"])
    assert code == 0
    assert "consistent fibration datum" in out
    assert "intersection matrix" in out


def test_n_override_flag(tmp_path, capsys):
    path = write_xab(tmp_path, 2, 3, 4)
    # The file is an even-parity datum; forcing odd parity must fail
    # validation because the diagonal no longer matches.
    assert main(["verify", str(path), "--n", "3"]) == 1


def test_twist_requires_exactly_one_target(tmp_path, capsys):
    path = write_xab(tmp_path)
    assert main(["twist", str(path), "t1"]) == 2
    assert (
        main(
            [
                "twist",
                str(path),
                "t1",
                "--target-index",
                "1",
                "--target-file",
                str(path),
            ]
        )
        == 2
    )


@pytest.mark.parametrize(
    "target_obj, message",
    [
        ({}, "target.vector: missing"),
        ({"vector": [[[0, 1.5]]]}, "target.vector[0]: coefficient 1.5 is not a decimal integer"),
        ([[[0, 1.5]]], "target[0]: coefficient 1.5 is not a decimal integer"),
    ],
    ids=["without-vector", "bad-coefficient-in-vector", "bad-coefficient-in-array"],
)
def test_twist_target_file_names_the_bad_field(tmp_path, capsys, target_obj, message):
    path = write_xab(tmp_path)
    target = tmp_path / "target.json"
    target.write_text(json.dumps(target_obj), encoding="utf-8")
    code = main(["twist", str(path), "t1", "--target-file", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"bad input: {message}" in err


DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize(
    "site, role, text",
    [
        ("verify", "fibration", '{"n": 3, "m": 1, "B": ' + DEEP + "}"),
        ("target", "target", DEEP),
        ("generators", "classes", '{"generators": ' + DEEP + "}"),
        ("induce", "classes", '{"classes": ' + DEEP + "}"),
    ],
    ids=["fibration", "target", "generators", "induce"],
)
def test_deeply_nested_json_names_the_file(tmp_path, capsys, site, role, text):
    fibre = write_xab(tmp_path)
    deep = tmp_path / "deep.json"
    deep.write_text(text, encoding="utf-8")
    argv = {
        "verify": ["verify", deep],
        "target": ["twist", fibre, "t1", "--target-file", deep],
        "generators": ["twist", fibre, "t1", "--target-index", 1, "--generators-file", deep],
        "induce": ["catalog", "induce", "--fibre", fibre, "--classes", deep, "--n", 4],
    }[site]
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{role}: JSON nested too deeply" in err


@pytest.mark.parametrize("word", ["", "t1"], ids=["empty-word", "t1"])
def test_twist_names_target_of_wrong_length(tmp_path, capsys, word):
    path = write_xab(tmp_path)
    target = tmp_path / "target.json"
    target.write_text(dumps_canonical({"vector": [[[0, "1"]]]}), encoding="utf-8")
    code = main(["twist", str(path), word, "--target-file", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "target.vector: length 1, not the fibre's 5" in captured.err


def test_twist_names_generator_of_wrong_length(tmp_path, capsys):
    path = write_xab(tmp_path)
    basis = [[[[0, "1"]]] + [[]] * 4]
    generators = tmp_path / "generators.json"
    generators.write_text(
        dumps_canonical({"generators": basis + [[[[0, "1"]]]]}), encoding="utf-8"
    )
    argv = ["twist", path, "t1", "--target-index", 1, "--generators-file", generators]
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "classes.generators[1]: length 1, not the fibre's 5" in err


def write_big_corner(tmp_path, digits):
    """A 2 x 2 Seifert-matrix file (n = 4) with entry (1, 2) = 10^digits."""
    entries = [[[[0, "1"]], [[0, "1" + "0" * digits]]], [[], [[0, "1"]]]]
    path = tmp_path / "big.json"
    path.write_text(
        dumps_canonical({"n": 4, "m": 2, "A": {"rows": 2, "cols": 2, "entries": entries}}),
        encoding="utf-8",
    )
    return path


# det B = (1 - q)^2 + 10^6000 q for S = [[1, 10^3000], [0, 1]] and n = 4: its
# middle coefficient, 10^6000 - 2, is beyond the 4300-digit int/str limit.
BIG_MIDDLE = "9" * 5999 + "8"


def test_det_writes_coefficients_beyond_the_int_str_limit(tmp_path, capsys):
    code, report = run_json(capsys, ["compute", "det", write_big_corner(tmp_path, 3000)])
    assert code == 0
    assert report["det"] == [[0, "1"], [1, BIG_MIDDLE], [2, "1"]]


def test_table_writes_coefficients_beyond_the_int_str_limit(tmp_path, capsys):
    path = write_big_corner(tmp_path, 3000)
    code, out = run(capsys, ["compute", "det", path, "--format", "table"])
    assert code == 0
    assert f"1 + {BIG_MIDDLE}q + q^2" in out
    assert str(-10**6000 * q) == "-1" + "0" * 6000 + "q"


def test_coefficient_numerals_are_capped_on_read(tmp_path, capsys):
    assert main(["verify", str(write_big_corner(tmp_path, MAX_DIGITS - 1))]) == 0
    capsys.readouterr()
    code = main(["verify", str(write_big_corner(tmp_path, MAX_DIGITS))])
    err = capsys.readouterr().err
    assert code == 2
    field = "fibration.A.entries[0][1]"
    assert f"{field}: coefficient at exponent 0 has more than {MAX_DIGITS} digits" in err


BIG = "1" + "0" * 3000  # the corner entry 10^3000 of write_big_corner(tmp_path, 3000)


def test_move_refuses_to_write_coefficients_the_loader_refuses(tmp_path, capsys):
    # A Hurwitz move at 1 on S = [[1, x, x], [0, 1, x], [0, 0, 1]] puts x^2
    # at (1, 3), with 6001 digits for x = 10^3000: verify would refuse it.
    one, x = [[0, "1"]], [[0, BIG]]
    entries = [[one, x, x], [[], one, x], [[], [], one]]
    path = tmp_path / "s.json"
    path.write_text(
        dumps_canonical({"n": 4, "m": 3, "A": {"rows": 3, "cols": 3, "entries": entries}}),
        encoding="utf-8",
    )
    moved = tmp_path / "moved.json"
    code = main(["move", str(path), "hurwitz", "--k", "1", "--output", str(moved)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    field = "fibration.B.entries[0][2]"
    assert f"{field}: coefficient at exponent 0 has more than {MAX_DIGITS} digits" in captured.err
    assert not moved.exists()
    # Reports are not fibration files and keep every digit.
    code, out = run(capsys, ["compute", "det", path])
    assert code == 0 and len(out) > 2 * len(BIG)


def test_unwritable_output_leaves_stdout_empty(tmp_path, capsys):
    path = write_xab(tmp_path)
    for argv in (
        ["move", path, "hurwitz", "--k", 1],
        ["verify", path, "--format", "table"],
        ["catalog", "xab", "--a", 2, "--b", 3, "--n", 4],
    ):
        code = main([str(a) for a in argv + ["--output", tmp_path / "missing" / "out.json"]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "cannot read or write:" in captured.err


def test_classical_writes_integers_beyond_the_int_str_limit(tmp_path, capsys):
    # S1 = [[1, x], [0, 1]] with x = 10^3000 and n = 4: the classical
    # monodromy S1^-1 S1^T = [[1 - x^2, -x], [x, 1]] has a 6001-digit entry.
    code, out = run(capsys, ["compute", "classical", write_big_corner(tmp_path, 3000)])
    assert code == 0
    assert json.loads(out, parse_int=str) == {
        "seifert": [["1", BIG], ["0", "1"]],
        "intersection": [["0", BIG], ["-" + BIG, "0"]],
        "monodromy": [["-" + "9" * 6000, "-" + BIG], [BIG, "1"]],
    }


def test_classical_table_writes_integers_beyond_the_int_str_limit(tmp_path, capsys):
    path = write_big_corner(tmp_path, 3000)
    code, out = run(capsys, ["compute", "classical", path, "--format", "table"])
    assert code == 0
    w = len(BIG)
    assert out.splitlines() == [
        "classical Seifert matrix:",
        "  [ 1  " + BIG + " ]",
        "  [ 0  " + "1".rjust(w) + " ]",
        "classical intersection matrix:",
        "  [ " + "0".rjust(w + 1) + "  " + BIG + " ]",
        "  [ -" + BIG + "  " + "0".rjust(w) + " ]",
        "classical monodromy:",
        "  [ -" + "9" * 6000 + "  -" + BIG + " ]",
        "  [ " + BIG.rjust(6001) + "  " + "1".rjust(w + 1) + " ]",
    ]


HUGE_LITERAL = "1" + "0" * 5000  # a bare JSON integer beyond the 4300-digit limit


@pytest.mark.parametrize(
    "content, detail",
    [
        (
            '{"n": 4, "m": 1, "B": {"rows": 1, "cols": 1, "entries": [[[[0, '
            + HUGE_LITERAL
            + "]]]]}}",
            "4300 digits",
        ),
        ("[" + HUGE_LITERAL + "]", "4300 digits"),
        (b"\xff\xfe{}", "can't decode byte 0xff"),
    ],
    ids=["integer-in-file", "bare-integer", "bad-utf-8"],
)
@pytest.mark.parametrize("role", ["fibration", "target"])
def test_unreadable_numbers_and_bytes_name_the_file(tmp_path, capsys, role, content, detail):
    bad = tmp_path / "bad.json"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content, encoding="utf-8")
    argv = {
        "fibration": ["verify", bad],
        "target": ["twist", write_xab(tmp_path), "t1", "--target-file", bad],
    }[role]
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"bad input: {role}: " in captured.err
    assert detail in captured.err


def test_failed_parse_leaves_the_parser_usable(tmp_path, capsys):
    path = write_xab(tmp_path)
    for bad in (
        ["move", path, "rescale", "--k", 2, "--amount", 5, "--format", "table", "--bogus"],
        ["compute", "bogus", path],
        [],
    ):
        with pytest.raises(SystemExit) as info:
            main([str(a) for a in bad])
        assert info.value.code == 2
    capsys.readouterr()
    # Defaults are those of a fresh parser: amount 1, JSON format.
    code, report = run_json(capsys, ["move", path, "rescale", "--k", 2])
    assert code == 0
    assert report["amount"] == 1
    code, report = run_json(capsys, ["verify", path])
    assert code == 0 and report["consistent"] is True
