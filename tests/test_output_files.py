"""
An --output file that already exists ends up byte for byte what a write to
a fresh path gives, whether it held more bytes than the new output or
fewer. For every case of tests/test_cli_outputs.py the fresh file is the
rendered artifact for `move`, `compute double-cover` and the catalog
commands, and the JSON report otherwise.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from itertools import cycle, islice

import pytest

from qlefschetz.cli import main
from qlefschetz.serialize import dumps_canonical

from test_cli_outputs import CASES, write_inputs

# Commands whose --output is the file they produce, not their report; the
# other catalog commands' report is their file.
ARTIFACT = ("move-", "compute-double-cover", "catalog-milnor")


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("output_inputs"))


def run(case: str, paths: dict[str, str], output) -> str:
    """The JSON stdout of one case written to output; the command must exit 0."""
    datum, argv = CASES[case]
    names = dict(paths, file=paths[datum] if datum else "")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([a.format(**names) for a in argv] + ["--output", str(output)])
    assert code == 0
    return out.getvalue()


def expected_file(case: str, stdout: str) -> bytes:
    """What a fresh --output holds; "xab-3-5-3_move-shift" runs "move-shift"."""
    if (case.partition("_")[2] or case).startswith(ARTIFACT):
        return dumps_canonical(json.loads(stdout)["fibration"]).encode("utf-8")
    return stdout.encode("utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_overwritten_output_equals_a_fresh_one(case, paths, tmp_path):
    fresh = tmp_path / "fresh.json"
    stdout = run(case, paths, fresh)
    written = fresh.read_bytes()
    assert written == expected_file(case, stdout)
    longer = bytes(islice(cycle(range(256)), len(written) + 4096))
    for old in (longer, b"x"):
        target = tmp_path / "target.json"
        target.write_bytes(old)
        assert run(case, paths, target) == stdout
        assert target.read_bytes() == written
