"""End-to-end command-line behaviour, driven through cli.main()."""

from __future__ import annotations

import io
import json
import os
import stat
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlefschetz.cli as cli
from qlefschetz.catalog import milnor_ar, mirror_p2, xab
from qlefschetz.cli import main
from qlefschetz.laurent import MAX_DIGITS, LaurentPoly, q
from qlefschetz.lefschetz import LefschetzAlgebra
from qlefschetz.matrix import MAX_SIZE, LaurentMatrix
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
    # An amount past the limit is refused as the option the user typed, not
    # as a cell of the moved datum, and nothing is written.
    for amount in (40000, -40000, 10**11):
        code = main([str(a) for a in argv + [amount]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: --amount {amount} moves an exponent past 32768 in absolute value\n"
        )
        assert not moved.exists()


def test_move_bad_position(tmp_path, capsys):
    path = write_xab(tmp_path)
    assert main(["move", str(path), "hurwitz", "--k", "5"]) == 2


@pytest.mark.parametrize(
    "kind, k, message",
    [
        ("hurwitz", 0, "move position 0 is not among 1..4 (numbered from 1)"),
        ("hurwitz", 5, "move position 5 is not among 1..4 (numbered from 1)"),
        ("shift", 6, "object index 6 is not among 1..5 (numbered from 1)"),
    ],
)
def test_move_names_the_position_as_typed(tmp_path, capsys, kind, k, message):
    # The 5-cycle file has Hurwitz positions 1..4 and objects 1..5.
    code = main(["move", str(write_xab(tmp_path)), kind, "--k", str(k)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: {message}" in captured.err


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
    _, sphere = milnor_ar(3, 4)
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
            "--output", induced,
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
    return ["catalog", "induce", "--fibre", fibre, "--classes", spec]


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


FIRST_SPHERE = [poly_to_obj(c) for c in milnor_ar(4, 4)[1][0].coords]


@pytest.mark.parametrize(
    "entry, generators, message",
    [
        ({"word": "t1", "seed": 7}, None,
         "classes.classes[1].seed: seed 7 is not among 1..5 (numbered from 1)"),
        ({"word": "t9", "seed": 2}, None,
         "classes.classes[1].word: twist generator 9 is not among 1..5 (numbered from 1)"),
        ({"word": "t3", "seed": 1}, [FIRST_SPHERE, FIRST_SPHERE],
         "classes.classes[1].word: twist generator 3 is not among 1..2 (numbered from 1)"),
    ],
    ids=["seed", "letter", "letter-beyond-file-generators"],
)
def test_catalog_induce_names_index_beyond_generators(
    tmp_path, capsys, entry, generators, message
):
    # The generators are the file's, else the fibre's thimbles.
    classes = [{"word": "t2", "seed": 1}, entry]
    argv = write_induce_inputs(tmp_path, capsys, classes, generators)
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"bad input: {message}\n"


@pytest.mark.parametrize(
    "classes, generators, message",
    [
        ([{"word": "t1", "seed": 1}], [FIRST_SPHERE, [[[0, "1"]]]],
         "classes.generators[1]: length 1, not the fibre's 5"),
        ([{"word": "t2", "seed": 1}, {"vector": [[[0, "1"]]]}], None,
         "classes.classes[1].vector: length 1, not the fibre's 5"),
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


def test_file_n_of_wrong_parity_fails_validation(tmp_path, capsys):
    path = write_xab(tmp_path, 2, 3, 4)
    # The file is an even-parity datum; relabelled odd, it must fail
    # validation because the diagonal no longer matches.
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["n"] = 3
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    assert main(["verify", str(path)]) == 1


def test_twist_requires_exactly_one_target(tmp_path, capsys):
    path = write_xab(tmp_path)
    for targets in ([], ["--target-index", "1", "--target-file", str(path)]):
        with pytest.raises(SystemExit) as info:
            main(["twist", str(path), "t1"] + targets)
        assert info.value.code == 2


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
        "induce": ["catalog", "induce", "--fibre", fibre, "--classes", deep],
    }[site]
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{role}: JSON nested too deeply" in err


@pytest.mark.parametrize(
    "site, role, text, key",
    [
        ("verify", "fibration", ', "n": 6}', "n"),
        ("verify", "fibration", ', "n": 3}', "n"),
        ("verify", "fibration", '{"n": 4, "m": 1, "B": {"rows": 1, "rows": 1}}', "rows"),
        ("target", "target", '{"vector": [], "vector": []}', "vector"),
        ("generators", "classes", '{"generators": [], "generators": []}', "generators"),
        ("induce", "classes", '{"classes": [], "classes": []}', "classes"),
    ],
    ids=["fibration-n-6", "fibration-n-3", "fibration-matrix", "target", "generators", "induce"],
)
def test_a_repeated_key_names_the_file(tmp_path, capsys, site, role, text, key):
    # A text starting with a comma repeats a key of the n = 4 fibre file.
    fibre = write_xab(tmp_path)
    if text.startswith(","):
        text = fibre.read_text(encoding="utf-8").rstrip().removesuffix("}") + text
    repeated = tmp_path / "repeated.json"
    repeated.write_text(text, encoding="utf-8")
    argv = {
        "verify": ["verify", repeated],
        "target": ["twist", fibre, "t1", "--target-file", repeated],
        "generators": ["twist", fibre, "t1", "--target-index", 1, "--generators-file", repeated],
        "induce": ["catalog", "induce", "--fibre", fibre, "--classes", repeated],
    }[site]
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f'bad input: {role}: duplicate key "{key}"\n'


@pytest.mark.parametrize(
    "argv, options, m",
    [
        (["milnor", "--r", MAX_SIZE], f"--r {MAX_SIZE}", MAX_SIZE + 1),
        (["milnor", "--r", 10**12], f"--r {10**12}", 10**12 + 1),
        (["xab", "--a", MAX_SIZE // 2, "--b", MAX_SIZE // 2 + 1],
         f"--a {MAX_SIZE // 2} --b {MAX_SIZE // 2 + 1}", MAX_SIZE + 1),
        (["xab", "--a", 10**12, "--b", 10**12 + 1], f"--a {10**12} --b {10**12 + 1}", 2 * 10**12 + 1),
        (["xab", "--a", 1, "--b", MAX_SIZE], f"--a 1 --b {MAX_SIZE}", MAX_SIZE + 1),
        (["xab", "--a", 1, "--b", 10**12], f"--a 1 --b {10**12}", 10**12 + 1),
    ],
    ids=["r-over", "r-huge", "a-over", "a-huge", "b-over", "b-huge"],
)
def test_catalog_refuses_a_size_over_the_budget(tmp_path, capsys, argv, options, m):
    # Refused before anything is built or written, whatever the size.
    out = tmp_path / "out.json"
    code = main(["catalog", *map(str, argv), "--n", "3", "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {options} asks for m = {m}, over the size budget of {MAX_SIZE}\n"
    assert not out.exists()


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


def test_twist_generators_file_holds_its_vectors_to_the_fibre_length(tmp_path, capsys):
    # One classes-file rule for `twist` and `catalog induce`: every vector,
    # used or not, has the fibre's length.
    path = write_xab(tmp_path)
    basis = [[[[0, "1"]] if i == j else [] for j in range(5)] for i in range(5)]
    generators = tmp_path / "generators.json"
    obj = {"generators": basis, "classes": [{"vector": [[[0, "1"]]]}]}
    generators.write_text(dumps_canonical(obj), encoding="utf-8")
    argv = ["twist", path, "t1", "--target-index", 1, "--generators-file", generators]
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "classes.classes[0].vector: length 1, not the fibre's 5" in captured.err


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


def test_output_to_dev_null_prints_the_plain_report(tmp_path, capsys):
    path = write_xab(tmp_path)
    for argv in (["move", path, "hurwitz", "--k", 1], ["verify", path, "--format", "table"]):
        plain = run(capsys, argv)
        assert plain[0] == 0
        assert run(capsys, argv + ["--output", os.devnull]) == plain


def test_output_naming_a_directory_fails_as_open_does(tmp_path, capsys):
    path = write_xab(tmp_path)
    with pytest.raises(IsADirectoryError) as caught:
        open(tmp_path, "w")
    code = main(["verify", str(path), "--output", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"cannot read or write: {caught.value}\n"


def test_output_through_a_symlink_writes_its_target(tmp_path, capsys):
    path = write_xab(tmp_path)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old " * 5000, encoding="utf-8")
    link.symlink_to(target)
    code, out = run(capsys, ["verify", path, "--output", link])
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8") == out


def test_output_keeps_an_existing_file_its_mode_and_links(tmp_path, capsys):
    path = write_xab(tmp_path)
    out_path, twin = tmp_path / "out.json", tmp_path / "twin.json"
    out_path.write_text("old " * 5000, encoding="utf-8")
    out_path.chmod(0o600)
    os.link(out_path, twin)
    inode = out_path.stat().st_ino
    code, out = run(capsys, ["verify", path, "--output", out_path])
    assert code == 0
    for name in (out_path, twin):
        st = name.stat()
        assert (stat.S_IMODE(st.st_mode), st.st_ino, st.st_nlink) == (0o600, inode, 2)
        assert name.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_new_output_file_gets_the_mode_the_umask_leaves(tmp_path, capsys, umask):
    path, out_path = write_xab(tmp_path), tmp_path / "new.json"
    old = os.umask(umask)
    try:
        code, _ = run(capsys, ["verify", path, "--output", out_path])
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(out_path.stat().st_mode) == 0o666 & ~umask


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


@pytest.mark.parametrize(
    "alg", [xab(2, 3, 4).double_cover()[0], xab(3, 5, 3)], ids=["cover-2-3-4", "xab-3-5-3"]
)
def test_obstruct_converts_each_kernel_class_once(tmp_path, capsys, monkeypatch, alg):
    path = tmp_path / "datum.json"
    path.write_text(dumps_canonical(fibration_to_obj(alg)), encoding="utf-8")
    converted = []
    convert = cli.kclass_to_obj
    monkeypatch.setattr(cli, "kclass_to_obj", lambda h: converted.append(h) or convert(h))
    code, report = run_json(capsys, ["obstruct", path])
    assert code == 0
    assert converted == alg.intersection.nullspace()
    assert report["kernel"] == [g["class"] for g in report["generators"]]


def test_verify_reports_labels(tmp_path, capsys):
    labels = ["a", "b", "c", "d", "e"]
    path = tmp_path / "labelled.json"
    path.write_text(dumps_canonical(fibration_to_obj(xab(2, 3, 4), labels)), encoding="utf-8")
    code, report = run_json(capsys, ["verify", path])
    assert code == 0
    assert report["labels"] == labels


def write_seifert_rows(tmp_path, rows):
    path = tmp_path / "seifert.json"
    obj = {"n": 4, "m": len(rows), "A": {"rows": len(rows), "cols": len(rows), "entries": rows}}
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    return path


def test_obstruct_table_prints_the_witness(tmp_path, capsys):
    # S = [[1, 1 - q], [0, 1]] with n = 4: the kernel generator (1, -1)
    # pairs to 1 + q, the spherical value itself.
    one = [[0, "1"]]
    path = write_seifert_rows(tmp_path, [[one, [[0, "1"], [1, "-1"]]], [[], one]])
    code, out = run(capsys, ["obstruct", path, "--format", "table"])
    assert code == 0
    assert out.splitlines()[:2] == ["verdict: not-obstructed (witness f = 1)", "witness: 1"]


def test_compute_classical_table_of_the_empty_datum(tmp_path, capsys):
    path = write_seifert_rows(tmp_path, [])
    code, out = run(capsys, ["compute", "classical", path, "--format", "table"])
    assert code == 0
    assert out.splitlines() == [
        "classical Seifert matrix: (empty)",
        "classical intersection matrix: (empty)",
        "classical monodromy: (empty)",
    ]


def test_twist_generators_file_needs_generators(tmp_path, capsys):
    generators = tmp_path / "classes.json"
    generators.write_text(dumps_canonical({"classes": []}), encoding="utf-8")
    path = write_xab(tmp_path)
    argv = ["twist", path, "t1", "--target-index", 1, "--generators-file", generators]
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "classes.generators: missing from generators file" in captured.err


def test_catalog_induce_classes_file_needs_classes(tmp_path, capsys):
    # A fibration file given as the classes file has no "classes" key; an
    # explicit empty list, as catalog milnor --classes-output writes, still
    # induces the empty datum.
    fibre, spheres = tmp_path / "fibre.json", tmp_path / "spheres.json"
    argv = ["catalog", "milnor", "--r", 4, "--n", 4, "--output", fibre]
    assert run(capsys, argv + ["--classes-output", spheres])[0] == 0
    code = main([str(a) for a in ["catalog", "induce", "--fibre", fibre, "--classes", fibre]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "classes.classes: missing from classes file" in captured.err
    code, report = run_json(capsys, ["catalog", "induce", "--fibre", fibre, "--classes", spheres])
    assert code == 0
    assert (report["n"], report["m"]) == (4, 0)


@pytest.mark.parametrize("index", [0, 6])
def test_twist_target_index_out_of_range(tmp_path, capsys, index):
    code = main(["twist", str(write_xab(tmp_path)), "t1", "--target-index", str(index)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"target index {index} is not among 1..5 (numbered from 1)" in captured.err


def test_twist_refuses_letter_beyond_generators(tmp_path, capsys):
    code = main(["twist", str(write_xab(tmp_path)), "t9", "--target-index", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: twist generator 9 is not among 1..5 (numbered from 1)\n"


# Typed integers: small ones, the size budget's edges, and extremes of any sign.
typed = (
    st.integers(-3, 12)
    | st.sampled_from([2**31, 2**63, -(2**63), MAX_SIZE, MAX_SIZE + 1])
    | st.integers(-(10**30), 10**30)
)
# Catalog sizes: small ones, and ones over the size budget (builds just under
# it take seconds, and test_catalog_refuses_a_size_over_the_budget has them).
sizes = st.integers(-3, 12) | st.integers(MAX_SIZE + 1, 10**30)


@st.composite
def integer_argvs(draw):
    """Every subcommand that takes an integer option, each such option drawn; None is the file."""
    command = draw(st.sampled_from(["move", "twist", "milnor", "xab", "mirror-p2"]))
    if command == "move":
        kind = draw(st.sampled_from(["hurwitz", "hurwitz-inverse", "rescale", "shift"]))
        return ["move", None, kind, f"--k={draw(typed)}", f"--amount={draw(typed)}"]
    if command == "twist":
        return ["twist", None, "t1 t2^-1", f"--target-index={draw(typed)}"]
    if command == "milnor":
        return ["catalog", "milnor", f"--r={draw(sizes)}", f"--n={draw(typed)}"]
    if command == "xab":
        return ["catalog", "xab", f"--a={draw(sizes)}", f"--b={draw(sizes)}", f"--n={draw(typed)}"]
    return ["catalog", "mirror-p2", f"--n={draw(typed)}"]


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    return write_xab(tmp_path_factory.mktemp("integers"))


@settings(deadline=None, max_examples=100)
@given(integer_argvs())
def test_no_typed_integer_ends_in_a_traceback(small_file, argv):
    """Each run, in-process, exits 0, 1 or 2 within seconds; no exception escapes main."""
    argv = [str(small_file) if a is None else a for a in argv]
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert time.perf_counter() - start < 10, argv
