"""
Output checks for benchmark jobs.

Two kinds of check, both run outside the timed region:

* digests: every job's stdout and written files are hashed. Every repeat of
  a job must hash like its first run, and for the pinned seed every job
  must hash like the digest pinned in `expected/<workload>.json`, which was
  generated from the program before any optimisation. A change that alters
  any output therefore counts as a failed job.
* invariants, for any seed: kernel vectors are killed by the intersection
  matrix and are primitive; det(B) at q = 2 equals an integer Bareiss
  determinant of B(2); a Hurwitz move followed by its inverse restores the
  Seifert matrix; every written file reloads and validates.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import Job

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
# The job kinds whose stdout the invariant checks read; the loop keeps the
# first stdout of these only, so the workload process holds no other output.
STDOUT_KINDS = ("det", "nullspace", "obstruct")


def digest(stdout: bytes, outputs: list[bytes]) -> str:
    h = hashlib.sha256(stdout)
    for blob in outputs:
        h.update(b"\0file\0")
        h.update(blob)
    return h.hexdigest()[:32]


def load_pins(workload: str) -> dict:
    path = EXPECTED_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def _load(path: Path):
    from qlefschetz.serialize import fibration_from_obj

    with open(path, encoding="utf-8") as handle:
        alg, _ = fibration_from_obj(json.load(handle))
    return alg


def _poly(obj):
    from qlefschetz.laurent import LaurentPoly

    return LaurentPoly.from_pairs(obj)


def integer_det(rows: list[list[int]]) -> int:
    """Bareiss determinant of an integer matrix, independent of the program."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def det_at_two(alg) -> Fraction:
    """det B(2), with each row of B(2) scaled to integers by a power of two."""
    m = alg.size
    rows, scale = [], 0
    for i in range(m):
        entries = [alg.intersection[i, j] for j in range(m)]
        low = min((p.valuation() for p in entries if not p.is_zero()), default=0)
        shift = max(0, -low)
        scale += shift
        rows.append([int(p.evaluate(2) * 2**shift) for p in entries])
    return Fraction(integer_det(rows), 2**scale)


def check_job(job: Job, workdir: Path, stdout: bytes, roundtrip: bool) -> list[str]:
    """Invariant violations for one job's first run (empty when it passes)."""
    problems: list[str] = []
    if job.kind == "det":
        value = _poly(json.loads(stdout)["det"]).evaluate(2)
        if value != det_at_two(_load(workdir / job.source)):
            problems.append(f"{job.key}: det at q = 2 disagrees with integer Bareiss")
    if job.kind in ("nullspace", "obstruct"):
        problems += _check_kernel(job, workdir, json.loads(stdout))
    if roundtrip:
        problems += _check_hurwitz_roundtrip(job, workdir)
    for name in job.outputs:
        try:
            _load(workdir / name)
        except (ValueError, KeyError, OSError) as exc:
            problems.append(f"{job.key}: written file {name} does not reload: {exc}")
    return problems


def _check_kernel(job: Job, workdir: Path, report: dict) -> list[str]:
    from qlefschetz.laurent import gcd_many
    from qlefschetz.matrix import KClass

    alg = _load(workdir / job.source)
    vectors = report["nullspace"] if job.kind == "nullspace" else report["kernel"]
    problems = []
    if len(vectors) != job.kernel_rank:
        problems.append(f"{job.key}: kernel rank {len(vectors)}, expected {job.kernel_rank}")
    for v in vectors:
        h = KClass([_poly(c) for c in v])
        if not (alg.intersection @ h).is_zero():
            problems.append(f"{job.key}: B @ v != 0")
        if gcd_many(c for c in h.coords if not c.is_zero()) != 1:
            problems.append(f"{job.key}: kernel vector is not primitive")
    return problems


def _check_hurwitz_roundtrip(job: Job, workdir: Path) -> list[str]:
    from qlefschetz.moves import hurwitz_inverse_move, hurwitz_move

    kind = job.args[2]  # args are ("move", source, kind, "--k", ...)
    forward, back = (
        (hurwitz_move, hurwitz_inverse_move) if kind == "hurwitz"
        else (hurwitz_inverse_move, hurwitz_move)
    )
    alg = _load(workdir / job.source)
    moved, _ = forward(alg, job.move_k - 1)
    restored, _ = back(moved, job.move_k - 1)
    problems = []
    if restored.seifert != alg.seifert:
        problems.append(f"{job.key}: {kind} followed by its inverse does not restore S")
    if _load(workdir / job.outputs[0]).seifert != moved.seifert:
        problems.append(f"{job.key}: the written file is not the moved datum")
    return problems
