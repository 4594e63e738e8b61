"""
Every subcommand, in both report formats, prints exactly its pinned stdout
in tests/cli_outputs/<case>.<json|txt> on the band datum xab(3, 5, 3), the
mirror plane mirror_p2(4) and the catalog families. The double cover of
xab(3, 5, 3), whose intersection matrix [[B, B], [B, B]] repeats each row,
pins the two eliminating commands on repeated rows.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qlefschetz import cli
from qlefschetz.catalog import milnor_ar, mirror_p2, xab
from qlefschetz.cli import main
from qlefschetz.serialize import dumps_canonical, fibration_to_obj, kclass_to_obj

OUTPUTS = Path(__file__).resolve().parent / "cli_outputs"

DATA = {
    "xab-3-5-3": lambda: xab(3, 5, 3),
    "mirror-p2-4": lambda: mirror_p2(4),
    "xab-3-5-3-cover": lambda: xab(3, 5, 3).double_cover()[0],
}

PER_DATUM = {
    "verify": ["verify", "{file}"],
    **{
        f"compute-{what}": ["compute", what, "{file}"]
        for what in ("det", "nullspace", "monodromy", "givental", "classical", "double-cover")
    },
    "obstruct": ["obstruct", "{file}"],
    "move-hurwitz": ["move", "{file}", "hurwitz", "--k", "2"],
    "move-hurwitz-inverse": ["move", "{file}", "hurwitz-inverse", "--k", "2"],
    "move-rescale": ["move", "{file}", "rescale", "--k", "2", "--amount", "3"],
    "move-shift": ["move", "{file}", "shift", "--k", "2"],
    "twist": ["twist", "{file}", "t2 t1^-1 t3", "--target-index", "1"],
}

CASES = {
    f"{datum}_{name}": (datum, argv)
    for datum in ("xab-3-5-3", "mirror-p2-4")
    for name, argv in PER_DATUM.items()
}
CASES.update(
    {
        **{
            f"xab-3-5-3-cover_{name}": ("xab-3-5-3-cover", PER_DATUM[name])
            for name in ("compute-det", "compute-nullspace")
        },
        "catalog-milnor": (None, ["catalog", "milnor", "--r", "4", "--n", "4"]),
        "catalog-xab": (None, ["catalog", "xab", "--a", "3", "--b", "5", "--n", "3"]),
        "catalog-mirror-p2": (None, ["catalog", "mirror-p2", "--n", "4"]),
        "catalog-induce": (
            None,
            ["catalog", "induce", "--fibre", "{fibre}", "--classes", "{classes}"],
        ),
    }
)


def write_inputs(directory: Path) -> dict[str, str]:
    """The input files every case refers to, by placeholder name."""
    paths: dict[str, str] = {}
    for datum, build in DATA.items():
        path = directory / f"{datum}.json"
        path.write_text(dumps_canonical(fibration_to_obj(build())), encoding="utf-8")
        paths[datum] = str(path)
    milnor, spheres = milnor_ar(4, 4)
    fibre = directory / "fibre.json"
    fibre.write_text(dumps_canonical(fibration_to_obj(milnor)), encoding="utf-8")
    classes = directory / "classes.json"
    spec = {
        "generators": [kclass_to_obj(s) for s in spheres],
        "classes": [{"word": f"t{(i + 1) % 4 + 1}", "seed": i + 1} for i in range(4)]
        + [{"vector": kclass_to_obj(spheres[0])}],
    }
    classes.write_text(dumps_canonical(spec), encoding="utf-8")
    paths["fibre"], paths["classes"] = str(fibre), str(classes)
    return paths


def render(case: str, fmt: str, paths: dict[str, str]) -> str:
    """The stdout of one case in one format; the command must exit 0."""
    datum, argv = CASES[case]
    names = dict(paths, file=paths[datum] if datum else "")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([a.format(**names) for a in argv] + ["--format", fmt])
    assert code == 0
    return out.getvalue()


def pin_path(case: str, fmt: str) -> Path:
    return OUTPUTS / f"{case}.{'json' if fmt == 'json' else 'txt'}"


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("cli_inputs"))


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_pinned(case, fmt, paths):
    assert render(case, fmt, paths) == pin_path(case, fmt).read_text(encoding="utf-8")


def test_every_pin_has_a_case():
    pinned = {p.name for p in OUTPUTS.iterdir()}
    assert pinned == {pin_path(c, f).name for c in CASES for f in ("json", "table")}


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_mode_builds_no_table(case, paths, monkeypatch):
    def refuse(*args):
        raise AssertionError("table lines built for a JSON report")

    monkeypatch.setattr(cli, "_matrix_lines", refuse)
    monkeypatch.setattr(cli, "_int_matrix_lines", refuse)
    assert render(case, "json", paths) == pin_path(case, "json").read_text(encoding="utf-8")
    if case.endswith(("verify", "monodromy", "classical", "move-shift")):
        with pytest.raises(AssertionError, match="table lines"):
            render(case, "table", paths)
