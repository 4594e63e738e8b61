"""
The README's command-line block runs as written: every command exits 0 in
a fresh directory, and `catalog induce` prints the datum the README says.
"""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

from qlefschetz.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCK = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", README, re.S | re.M).group(1)
# qlef as the console script runs it, without needing it installed.
QLEF = (
    'qlef() { "$QLEF_PYTHON" -c '
    '"import sys; from qlefschetz.cli import main; sys.exit(main())" "$@"; }\n'
)


def induce(directory: Path, classes: str) -> str:
    fibre, classes = str(directory / "fibre.json"), str(directory / classes)
    out = io.StringIO()
    argv = ["catalog", "induce", "--fibre", fibre, "--classes", classes, "--n", "4"]
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
