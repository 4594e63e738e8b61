"""
The README's code runs as written. Its library quick start and induction
example print what their comments say. Its command-line block exits 0 in a
fresh directory, and `catalog induce` prints the datum the README says, in
either parity.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

from qlefschetz.catalog import induced_total_space, milnor_ar
from qlefschetz.cli import main
from qlefschetz.serialize import class_specs_from_obj, dumps_canonical, fibration_to_obj

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCK = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", README, re.S | re.M).group(1)
CLASSES = re.search(r"^cat > classes.json <<'EOF'\n(.*?)^EOF", BLOCK, re.S | re.M).group(1)
LIBRARY = re.search(r"^## Library quick start\n(.*?)^## ", README, re.S | re.M).group(1)
QUICK_START, INDUCTION = re.findall(r"^```python\n(.*?)^```", LIBRARY, re.S | re.M)
# qlef as the console script runs it, without needing it installed.
QLEF = (
    'qlef() { "$QLEF_PYTHON" -c '
    '"import sys; from qlefschetz.cli import main; sys.exit(main())" "$@"; }\n'
)


def induce(directory: Path, classes: str) -> str:
    fibre, classes = str(directory / "fibre.json"), str(directory / classes)
    out = io.StringIO()
    argv = ["catalog", "induce", "--fibre", fibre, "--classes", classes]
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def test_the_readme_command_block_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), QLEF_PYTHON=sys.executable)
    done = subprocess.run(
        ["sh", "-c", "set -ex\n" + QLEF + BLOCK],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    # The induced datum is the pinned one of the CLI outputs, with m = 5 ...
    pinned = ROOT / "tests" / "cli_outputs" / "catalog-induce.json"
    assert induce(tmp_path, "classes.json") == pinned.read_text(encoding="utf-8")
    # ... and the spheres file alone, which holds no classes, gives m = 0.
    assert '"m": 0,' in induce(tmp_path, "spheres.json")


def test_the_readme_quick_start_prints_its_comments():
    namespace: dict = {}
    out = io.StringIO()
    with redirect_stdout(out):
        exec(QUICK_START, namespace)
    prints = [line for line in QUICK_START.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    wanted = [line.split("# ")[1] for line in prints if "# " in line]
    assert wanted == ["1 + q", "6 + 6q", "Verdict.OBSTRUCTED"]
    assert [got for line, got in zip(prints, printed) if "# " in line] == wanted
    assert str(namespace["h"]) == "(1, 1, 1, 1, 1)"


def test_the_readme_induction_example_builds_the_mirror_plane():
    out = io.StringIO()
    with redirect_stdout(out):
        exec(INDUCTION, {})
    assert out.getvalue() == "True\nTrue\n"


def test_the_readme_classes_induce_an_odd_total_space(tmp_path):
    # catalog milnor --n 3 writes an n = 2 fibre; the total space is n = 3.
    fibre_path = str(tmp_path / "fibre.json")
    with redirect_stdout(io.StringIO()):
        assert main(["catalog", "milnor", "--r", "4", "--n", "3", "--output", fibre_path]) == 0
    (tmp_path / "classes.json").write_text(CLASSES, encoding="utf-8")
    out = induce(tmp_path, "classes.json")
    generators, specs = class_specs_from_obj(json.loads(CLASSES), 5)
    fibre, _ = milnor_ar(4, 3)
    expected = fibration_to_obj(induced_total_space(fibre, specs, generators))
    assert out == dumps_canonical(expected)
    induced = json.loads(out)
    assert (induced["n"], induced["m"]) == (3, 5)
    diagonal = [induced["B"]["entries"][i][i] for i in range(5)]
    assert diagonal == [[[0, "1"], [1, "1"]]] * 5  # 1 + q
