"""
Seeded inputs and job lists for the three benchmark workloads.

A workload is planned from its seed alone, without importing the program:
the plan names the input files to generate (catalog family and parameters)
and one *round*, the ordered list of distinct `qlef` jobs. The timed loop
repeats the round for as long as the run lasts; every repetition of a job
must give the same output as its first run.

Run as a script, this module is the set-up step of a workload: it imports
`qlefschetz.cli` like the workload process does, builds the inputs through
the catalog and writes them, and exits. `run.py` times it.

    python3 bench/workloads.py <workload> <seed> <directory>
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("obstruct-ladder", "move-chain", "cli-cold")

# obstruct-ladder: `compute det` on every rung, `compute nullspace` up to
# NULLSPACE_MAX_M, `obstruct` up to OBSTRUCT_MAX_M (obstruct computes the
# kernel twice, so it is the heaviest command per size). Double covers of
# the members listed in COVER_RUNGS carry kernels of rank m + 1. Every size
# from 5 to 28 is a rung, so the job costs of a round lie close together
# and job_p50_ms and job_p90_ms fall between near neighbours whatever the
# seed; the three largest rungs are the tail beyond job_p90_ms.
LADDER_RUNGS = (*range(5, 29), 30, 35, 40)
NULLSPACE_MAX_M = 22
OBSTRUCT_MAX_M = 17
COVER_RUNGS = tuple(range(5, 14))

# move-chain: (m, moves) per chain, random moves at random positions. The
# chain at m = 25 makes the matrix products large; its jobs are fewer than
# a tenth of the round, so job_p90_ms falls inside the jobs at m = 15,
# whose timings swing less with the machine's load. Every chain runs
# each non-move job kind once, evenly spaced along it, so the mix of job
# kinds on each size does not depend on the seed. The growth chain
# alternates a Hurwitz move at k with an inverse one at k + 1, a braid
# whose action grows the coefficients at the same rate for every seed
# (18 bits and exponent span 29 after 30 moves at m = 10).
CHAINS = ((5, 10), (7, 10), (8, 10), (12, 10), (15, 15), (25, 5))
GROWTH_CHAIN = (10, 30)
EXTRA_KINDS = ("twist", "monodromy", "givental", "classical", "double-cover")
MOVE_KINDS = ("hurwitz", "hurwitz", "hurwitz-inverse", "rescale", "shift")

# cli-cold: small files only, so a job costs mostly interpreter start-up.
COLD_SIZES = (5, 7, 8)


@dataclass(frozen=True)
class InputSpec:
    """One generated input file: `family` is "xab", "cover" or "mirror"."""

    name: str
    family: str
    params: tuple[int, ...]


@dataclass(frozen=True)
class Job:
    """
    One `qlef` command. `args` holds file names relative to the work
    directory, marked by a leading "@"; `outputs` are the files it writes.
    `source` is the input file the job reads, `kernel_rank` the kernel rank
    its input is known to have (None when not a kernel job), `move_k` the
    1-based position of a Hurwitz move (None for any other job).
    """

    key: str
    kind: str
    args: tuple[str, ...]
    source: str
    outputs: tuple[str, ...] = ()
    kernel_rank: int | None = None
    move_k: int | None = None

    def argv(self, workdir: Path) -> list[str]:
        return [str(workdir / a[1:]) if a.startswith("@") else a for a in self.args]


@dataclass
class Plan:
    inputs: list[InputSpec] = field(default_factory=list)
    round: list[Job] = field(default_factory=list)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _band_pair(rng: random.Random, m: int) -> tuple[int, int]:
    """A coprime (a, b) with a + b = m and max(2, m/4) <= a < b when one exists.

    Narrow bands are left out so that the cost of a job does not depend on
    the seed: width a = 1 gives a tridiagonal matrix that eliminates several
    times faster than any wider band of the same size, and at m = 25 a band
    of width 2 eliminates about twice as fast as one of width 8, and its
    double cover takes about a third of the memory. When no width
    qualifies, the widest coprime one is taken (a = 1 for m = 6).
    """
    coprime = [a for a in range(1, (m + 1) // 2) if math.gcd(a, m - a) == 1 and a < m - a]
    widths = [a for a in coprime if a >= max(2, m / 4)]
    a = rng.choice(widths) if widths else coprime[-1]
    return a, m - a


def _xab_input(rng: random.Random, m: int) -> InputSpec:
    a, b = _band_pair(rng, m)
    n = rng.choice((3, 4))
    return InputSpec(f"xab-{a}-{b}-n{n}.json", "xab", (a, b, n))


def plan(workload: str, seed: int) -> Plan:
    if workload == "obstruct-ladder":
        return _plan_ladder(seed)
    if workload == "move-chain":
        return _plan_chain(seed)
    if workload == "cli-cold":
        return _plan_cold(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _plan_ladder(seed: int) -> Plan:
    rng = _rng("obstruct-ladder", seed)
    p = Plan()
    jobs: list[Job] = []

    def kernel_jobs(spec: InputSpec, rank: int, nullspace: bool, obstruct: bool) -> None:
        src = "@" + spec.name
        jobs.append(Job(f"det {spec.name}", "det", ("compute", "det", src), spec.name))
        if nullspace:
            jobs.append(
                Job(f"nullspace {spec.name}", "nullspace", ("compute", "nullspace", src),
                    spec.name, kernel_rank=rank)
            )
        if obstruct:
            jobs.append(
                Job(f"obstruct {spec.name}", "obstruct", ("obstruct", src), spec.name,
                    kernel_rank=rank)
            )

    for m in LADDER_RUNGS:
        spec = _xab_input(rng, m)
        p.inputs.append(spec)
        kernel_jobs(spec, 1, m <= NULLSPACE_MAX_M, m <= OBSTRUCT_MAX_M)
        if m in COVER_RUNGS:
            cover = InputSpec("cover-" + spec.name, "cover", spec.params)
            p.inputs.append(cover)
            kernel_jobs(cover, m + 1, True, False)
    n = rng.choice((3, 4))
    mirror = InputSpec(f"mirror-n{n}.json", "mirror", (n,))
    p.inputs.append(mirror)
    kernel_jobs(mirror, 0, True, True)
    rng.shuffle(jobs)
    p.round = jobs
    return p


def _move_args(rng: random.Random, m: int) -> tuple[int | None, tuple[str, ...]]:
    """A random move: its position when it is a Hurwitz move, and its arguments."""
    kind = rng.choice(MOVE_KINDS)
    if kind.startswith("hurwitz"):
        k = rng.randint(1, m - 1)
        return k, (kind, "--k", str(k))
    k = rng.randint(1, m)
    if kind == "rescale":
        amount = rng.choice((-2, -1, 1, 2))
        return None, (kind, "--k", str(k), "--amount", str(amount))
    return None, (kind, "--k", str(k))


def _twist_word(rng: random.Random, m: int) -> str:
    letters = []
    for _ in range(rng.randint(2, 6)):
        letter = f"t{rng.randint(1, m)}"
        letters.append(letter + "^-1" if rng.random() < 0.4 else letter)
    return " ".join(letters)


def _plan_chain(seed: int) -> Plan:
    rng = _rng("move-chain", seed)
    p = Plan()
    chains: list[list[Job]] = []
    for c, (m, moves) in enumerate((*CHAINS, GROWTH_CHAIN)):
        growth = c == len(CHAINS)
        spec = _xab_input(rng, m)
        start = f"c{c}-{spec.name}"
        p.inputs.append(InputSpec(start, "xab", spec.params))
        extras = list(EXTRA_KINDS)
        rng.shuffle(extras)
        steps: list[Job] = []
        current = start
        pivot = rng.randint(1, m - 2) if growth else 0
        for s in range(1, moves + 1):
            if growth:
                k = pivot if s % 2 else pivot + 1
                args = ("hurwitz" if s % 2 else "hurwitz-inverse", "--k", str(k))
            else:
                k, args = _move_args(rng, m)
            out = f"c{c}-s{s:02d}.json"
            steps.append(
                Job(f"c{c}.{s:02d} move {' '.join(args)}", "move",
                    ("move", "@" + current, *args, "--output", "@" + out),
                    current, outputs=(out,), move_k=k)
            )
            current = out
            every = moves // len(extras)
            if s % every == 0:
                steps.append(_chain_extra(rng, c, s, m, extras[s // every - 1], current))
        chains.append(steps)
    # Interleave the chains at random, keeping each chain's own order.
    order = [c for c, steps in enumerate(chains) for _ in steps]
    rng.shuffle(order)
    cursors = [0] * len(chains)
    for c in order:
        p.round.append(chains[c][cursors[c]])
        cursors[c] += 1
    return p


def _chain_extra(rng: random.Random, c: int, s: int, m: int, kind: str, current: str) -> Job:
    key = f"c{c}.{s:02d}x {kind}"
    if kind == "twist":
        word = _twist_word(rng, m)
        target = str(rng.randint(1, m))
        return Job(f"{key} {word!r} {target}", "twist",
                   ("twist", "@" + current, word, "--target-index", target), current)
    if kind == "double-cover":
        out = f"c{c}-s{s:02d}-cover.json"
        return Job(key, kind, ("compute", kind, "@" + current, "--output", "@" + out),
                   current, outputs=(out,))
    return Job(key, kind, ("compute", kind, "@" + current), current)


def _plan_cold(seed: int) -> Plan:
    rng = _rng("cli-cold", seed)
    p = Plan()
    jobs: list[Job] = []
    for m in COLD_SIZES:
        spec = _xab_input(rng, m)
        p.inputs.append(spec)
        src = "@" + spec.name
        jobs.append(Job(f"verify {spec.name}", "verify", ("verify", src), spec.name))
        jobs.append(Job(f"det {spec.name}", "det", ("compute", "det", src), spec.name))
        jobs.append(Job(f"obstruct {spec.name}", "obstruct", ("obstruct", src), spec.name,
                        kernel_rank=1))
        for i in range(2):
            k, args = _move_args(rng, m)
            out = f"moved-{m}-{i}.json"
            jobs.append(Job(f"move {spec.name} {' '.join(args)}", "move",
                            ("move", src, *args, "--output", "@" + out), spec.name,
                            outputs=(out,), move_k=k))
        word = _twist_word(rng, m)
        target = str(rng.randint(1, m))
        jobs.append(Job(f"twist {spec.name} {word!r} {target}", "twist",
                        ("twist", src, word, "--target-index", target), spec.name))
        a, b, n = spec.params
        out = f"catalog-{spec.name}"
        jobs.append(Job(f"catalog {spec.name}", "catalog",
                        ("catalog", "xab", "--a", str(a), "--b", str(b), "--n", str(n),
                         "--output", "@" + out), "", outputs=(out,)))
    mirror_n = rng.choice((3, 4))
    name = f"mirror-n{mirror_n}.json"
    p.inputs.append(InputSpec(name, "mirror", (mirror_n,)))
    jobs.append(Job(f"obstruct {name}", "obstruct", ("obstruct", "@" + name), name,
                    kernel_rank=0))
    jobs.append(Job(f"verify {name}", "verify", ("verify", "@" + name), name))
    rng.shuffle(jobs)
    p.round = jobs
    return p


def write_inputs(p: Plan, workdir: Path) -> None:
    """Build every input of the plan through the catalog and write it."""
    from qlefschetz.catalog import mirror_p2, xab
    from qlefschetz.serialize import dumps_canonical, fibration_to_obj

    workdir.mkdir(parents=True, exist_ok=True)
    for spec in p.inputs:
        if spec.family == "mirror":
            alg = mirror_p2(*spec.params)
        else:
            alg = xab(*spec.params)
            if spec.family == "cover":
                alg, _ = alg.double_cover()
        (workdir / spec.name).write_text(dumps_canonical(fibration_to_obj(alg)), encoding="utf-8")


def main(argv: list[str]) -> int:
    workload, seed, directory = argv[0], int(argv[1]), Path(argv[2])
    import qlefschetz.cli  # noqa: F401  (the workload process pays this import too)

    write_inputs(plan(workload, seed), directory)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
