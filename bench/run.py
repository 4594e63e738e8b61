"""
The qlefschetz benchmark: seeded closed-loop `qlef` workloads.

    python3 bench/run.py --workload obstruct-ladder --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload move-chain --seed 1 --trace 1
    python3 bench/run.py --self-test

Each workload runs in its own process with one client in a closed loop:
the next job starts when the previous one has returned. A job is one `qlef`
command, run in-process through `qlefschetz.cli.main` (obstruct-ladder,
move-chain) or as a fresh `qlef` process (cli-cold). The seed picks the
inputs; the program sees only the generated files and the arguments.

With --trace 0 the loop repeats the workload's round of jobs for --seconds
and reports the end-to-end metrics. With --trace 1 it runs the round once
untraced and once traced (see tracer.py) and reports the per-layer metrics;
--seconds is then unused. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. A results file with the run
environment is written under .bench_out/ (or to --results). See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

PINNED_SEED = 1  # the seed whose outputs are pinned in expected/
CONFIRM_SEED = 2  # a seed kept for confirming a claim on unseen inputs
SETUP_REPEATS = 5
START_REPEATS = 4  # on each side of the untraced round
JOB_TIMEOUT_S = 120
QLEF_ENTRY = "import sys; from qlefschetz.cli import main; sys.exit(main())"
IN_PROCESS = {"obstruct-ladder": True, "move-chain": True, "cli-cold": False}

# Per-layer metrics of a traced run: (name, unit, better).
LAYER_METRICS = (
    [(f"laurent.mul.{k}", u, "lower") for k, u in
     (("calls", "count"), ("s", "s"), ("in_max_bits", "bits"), ("in_max_span", "count"))]
    + [("laurent.exact_div.calls", "count", "lower"), ("laurent.exact_div.s", "s", "lower")]
    + [(f"laurent.gcd.{k}", u, "lower") for k, u in
       (("calls", "count"), ("s", "s"), ("in_max_bits", "bits"), ("in_max_span", "count"))]
    + [(f"matrix.{k}", "count" if k.endswith("calls") else "s", "lower") for k in (
        "det.calls", "det.s", "rank.s", "nullspace.calls", "nullspace.s",
        "canonical_primitive.s", "matmul.calls", "matmul.s", "unitriangular_inverse.s",
        "gram_pairing.calls", "gram_pairing.s")]
    + [(f"lefschetz.{k}.s", "s", "lower") for k in (
        "validate", "monodromy", "double_cover", "charpoly_matrix", "specialize_classical")]
    + [(f"moves.{k}", "count" if k.endswith("calls") else "s", "lower") for k in (
        "hurwitz.calls", "hurwitz.s", "diagonal.s", "twist_word.calls", "twist_word.s")]
    + [("obstructions.sphere_test.s", "s", "lower"),
       ("obstructions.kernel_classes.calls", "count", "lower"),
       ("obstructions.self_pairing.calls", "count", "lower"),
       ("obstructions.nullspace_per_obstruct", "ratio", "lower"),
       ("obstructions.self_pairing_per_generator", "ratio", "lower"),
       ("catalog.build.s", "s", "lower"),
       ("serialize.load.s", "s", "lower"), ("serialize.load.bytes", "bytes", "lower"),
       ("serialize.dump.s", "s", "lower"), ("serialize.dump.bytes", "bytes", "lower"),
       ("cli.main.s", "s", "lower"), ("cli.import_s", "s", "lower"),
       ("python.start_s", "s", "lower"),
       ("repo.src_lines", "lines", "lower"),
       ("share.elimination", "ratio", "lower"),
       ("share.matmul_moves", "ratio", "lower"),
       ("share.start_import", "ratio", "lower"),
       ("trace.jobs", "count", "higher"),
       ("trace.spans", "count", "lower"),
       ("trace.untraced_jobs_per_s", "1/s", "higher"),
       ("trace.traced_jobs_per_s", "1/s", "higher"),
       ("trace.overhead_jobs_per_s", "1/s", "higher")]
)
ELIMINATION = {"matrix.det", "matrix.rank", "matrix.nullspace", "laurent.gcd", "laurent.exact_div"}
MATMUL_MOVES = {"matrix.matmul", "moves.hurwitz", "moves.diagonal", "moves.twist_word"}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Outcome:
    code: object
    stdout: bytes
    stderr: str
    seconds: float
    rss_kb: int = 0


def run_child(cmd: list[str], errfile: Path, env: dict[str, str] | None = None) -> Outcome:
    """Run one process to completion; its own peak RSS comes from wait4."""
    t0 = time.perf_counter()
    with open(errfile, "w+b") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                env=env or _env())
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            watchdog.cancel()
        seconds = time.perf_counter() - t0
        err.seek(0)
        errtext = err.read().decode("utf-8", "replace")
    return Outcome(proc.returncode, out, errtext, seconds, usage.ru_maxrss)


def run_in_process(cli, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code: object = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crashing job is a failed job, not a crashed run
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    return Outcome(code, out.getvalue().encode("utf-8"), err.getvalue(), seconds)


@dataclass
class Loop:
    """What one pass of the closed loop saw."""

    latencies: list[float] = field(default_factory=list)
    positions: list[int] = field(default_factory=list)
    failed: list[bool] = field(default_factory=list)
    first_stdout: dict[int, bytes] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    child_rss_kb: int = 0

    @property
    def jobs_per_s(self) -> float:
        return len(self.latencies) / self.elapsed


class Workload:
    def __init__(self, name: str, seed: int, pins: dict | None = None):
        self.plan = workloads.plan(name, seed)
        self.name, self.seed = name, seed
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        if pins is None:
            pins = checks.load_pins(name) if seed == PINNED_SEED else {}
        self.pins: dict[str, str] = pins.get("digests", {})
        self.first_digest: dict[int, str] = {}
        self.roundtrip = self._roundtrip_sample()
        self.cli = None

    def set_up(self) -> float:
        """Generate the inputs in a fresh process; returns its wall time."""
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH / "workloads.py"), self.name, str(self.seed),
               str(self.dir)]
        outcome = run_child(cmd, self.dir / "setup.err")
        if outcome.code != 0:
            raise RuntimeError(f"set-up failed: {outcome.stderr.strip()}")
        return outcome.seconds

    def run_job(self, i: int, tracer: Tracer | None) -> Outcome:
        job = self.plan.round[i % len(self.plan.round)]
        argv = job.argv(self.dir)
        if IN_PROCESS[self.name]:
            if tracer is not None:
                tracer.current_job = i
            return run_in_process(self.cli, argv)
        if tracer is None:
            return run_child([sys.executable, "-c", QLEF_ENTRY, *argv], self.dir / "job.err")
        spans = self.dir / "job.spans"
        env = _env()
        env["BENCH_TRACE_FILE"] = str(spans)
        outcome = run_child([sys.executable, str(BENCH / "qlef_traced.py"), *argv],
                            self.dir / "job.err", env)
        if spans.exists():
            tracer.absorb(spans, i)
            spans.unlink()
        return outcome

    def loop(self, seconds: float | None, count: int | None,
             tracer: Tracer | None = None) -> Loop:
        rounds = len(self.plan.round)
        seen = Loop()
        t_start = time.perf_counter()
        i = 0
        while (count is None or i < count) and (
                seconds is None or time.perf_counter() - t_start < seconds):
            outcome = self.run_job(i, tracer)
            seen.latencies.append(outcome.seconds)
            seen.positions.append(i % rounds)
            seen.child_rss_kb = max(seen.child_rss_kb, outcome.rss_kb)
            seen.failed.append(not self._output_ok(i % rounds, outcome, seen))
            i += 1
        seen.elapsed = time.perf_counter() - t_start
        return seen

    def _output_ok(self, pos: int, outcome: Outcome, seen: Loop) -> bool:
        job = self.plan.round[pos]
        if outcome.code != 0:
            seen.problems.append(f"{job.key}: exit {outcome.code}: {outcome.stderr[-300:]}")
            return False
        try:
            blobs = [(self.dir / name).read_bytes() for name in job.outputs]
        except OSError as exc:
            seen.problems.append(f"{job.key}: output missing: {exc}")
            return False
        d = checks.digest(outcome.stdout, blobs)
        first = self.first_digest.setdefault(pos, d)
        seen.first_stdout.setdefault(
            pos, outcome.stdout if job.kind in checks.STDOUT_KINDS else b"")
        if d != first:
            seen.problems.append(f"{job.key}: output differs from its first run")
            return False
        if self.pins and self.pins.get(job.key) != d:
            seen.problems.append(f"{job.key}: output differs from the pinned digest")
            return False
        return True

    def check_invariants(self, seen: Loop) -> None:
        """Run the invariant checks on first runs; failing jobs count as failed."""
        bad: set[int] = set()
        for pos in sorted(seen.first_stdout):
            job = self.plan.round[pos]
            try:
                problems = checks.check_job(job, self.dir, seen.first_stdout[pos],
                                            pos in self.roundtrip)
            except Exception as exc:  # an unreadable output is a failed check
                problems = [f"{job.key}: check raised {type(exc).__name__}: {exc}"]
            if problems:
                seen.problems.extend(problems)
                bad.add(pos)
        seen.failed = [f or pos in bad for f, pos in zip(seen.failed, seen.positions)]

    def _roundtrip_sample(self) -> set[int]:
        """One Hurwitz step per move chain (per workload for cli-cold), picked by the seed."""
        groups: dict[str, list[int]] = {}
        for pos, job in enumerate(self.plan.round):
            if job.move_k is not None:
                groups.setdefault(job.key.split(".")[0].split()[0], []).append(pos)
        rng = random.Random(f"roundtrip/{self.seed}")
        return {rng.choice(group) for group in groups.values()}

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def end_to_end(w: Workload, seconds: float) -> dict:
    setups = [w.set_up() for _ in range(SETUP_REPEATS)]
    import qlefschetz.cli

    w.cli = qlefschetz.cli
    seen = w.loop(seconds, None)
    if IN_PROCESS[w.name]:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = seen.child_rss_kb
    w.check_invariants(seen)
    n = len(seen.latencies)
    failed = sum(seen.failed)
    p90_rank = -(-9 * n // 10)
    metrics = {
        "jobs_per_s": (seen.jobs_per_s, "1/s"),
        "job_p50_ms": (statistics.median(seen.latencies) * 1e3, "ms"),
        "job_p90_ms": (statistics.quantiles(seen.latencies, n=10, method="inclusive")[8] * 1e3,
                       "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    samples = {"jobs_per_s": f"{n} jobs in {seen.elapsed:.2f} s",
               "job_p50_ms": f"n={n}", "job_p90_ms": f"n={n}, {n - p90_rank} beyond",
               "setup_s": f"median of {SETUP_REPEATS} set-ups",
               "peak_rss_mb": "workload process" if IN_PROCESS[w.name] else "largest job process"}
    extra = {"failed_ratio": failed / n, "round_jobs": len(w.plan.round),
             "setup_runs_s": setups}
    return {"attempted": n, "failed": failed, "metrics": metrics, "samples": samples,
            "extra": extra, "problems": seen.problems}


def traced(w: Workload) -> dict:
    w.set_up()
    import qlefschetz.cli

    w.cli = qlefschetz.cli
    rounds = len(w.plan.round)
    # Start-up is sampled before and after the untraced round, so that
    # share.start_import divides timings taken over the same stretch of time.
    starts = start_samples(w.dir)
    plain = w.loop(None, rounds)
    start_s, import_s = start_and_import(starts + start_samples(w.dir))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.current_job = -1
        workloads.write_inputs(w.plan, w.dir / "traced-setup")
        seen = w.loop(None, rounds, tracer)
    finally:
        tracer.uninstall()
    w.check_invariants(plain)
    w.check_invariants(seen)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{w.name}-seed{w.seed}.bin")

    jobs = tracer.summary(jobs_only=True)
    everything = tracer.summary(jobs_only=False)
    layer: dict[str, float] = {}
    for name, stats in jobs.items():
        layer[name + ".calls"] = stats["calls"]
        layer[name + ".s"] = stats["s"]
    layer["catalog.build.s"] = everything.get("catalog.build", {"s": 0.0})["s"]
    layer.update(tracer.maxima)
    layer.update(tracer.counts)
    obstruct = {i for i, job in enumerate(w.plan.round) if job.kind == "obstruct"}
    generators = sum(w.plan.round[i].kernel_rank for i in obstruct)
    layer["obstructions.nullspace_per_obstruct"] = (
        tracer.calls_in_jobs("matrix.nullspace", obstruct) / len(obstruct) if obstruct else 0.0)
    layer["obstructions.self_pairing_per_generator"] = (
        tracer.calls_in_jobs("obstructions.self_pairing", obstruct) / generators
        if generators else 0.0)
    busy = sum(seen.latencies)
    cold_call = statistics.mean(plain.latencies) + (
        start_s + import_s if IN_PROCESS[w.name] else 0.0)
    layer.update({
        "cli.import_s": import_s,
        "python.start_s": start_s,
        "repo.src_lines": src_lines(),
        "share.elimination": tracer.inclusive_s(ELIMINATION) / busy,
        "share.matmul_moves": tracer.inclusive_s(MATMUL_MOVES) / busy,
        "share.start_import": (start_s + import_s) / cold_call,
        "trace.jobs": len(seen.latencies),
        "trace.spans": len(tracer.cols["name"]),
        "trace.untraced_jobs_per_s": plain.jobs_per_s,
        "trace.traced_jobs_per_s": seen.jobs_per_s,
        "trace.overhead_jobs_per_s": seen.jobs_per_s - plain.jobs_per_s,
    })
    metrics = {name: (layer.get(name, 0), unit) for name, unit, _ in LAYER_METRICS}
    failed = sum(plain.failed) + sum(seen.failed)
    n = len(plain.latencies) + len(seen.latencies)
    return {"attempted": n, "failed": failed, "metrics": metrics,
            "samples": {"trace.jobs": f"one round of {rounds} jobs, traced once"},
            "extra": {"failed_ratio": failed / n, "round_jobs": rounds},
            "problems": plain.problems + seen.problems}


def start_samples(scratch: Path) -> list[tuple[float, float]]:
    """START_REPEATS pairs of (bare interpreter start, start with `import qlefschetz.cli`)."""
    return [
        (run_child([sys.executable, "-c", "pass"], scratch / "start.err").seconds,
         run_child([sys.executable, "-c", "import qlefschetz.cli"], scratch / "start.err").seconds)
        for _ in range(START_REPEATS)
    ]


def start_and_import(samples: list[tuple[float, float]]) -> tuple[float, float]:
    """Median bare start, and the median start with the import minus it."""
    bare = statistics.median(b for b, _ in samples)
    return bare, statistics.median(loaded for _, loaded in samples) - bare


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit(), "seed": seed, "pinned_seed": PINNED_SEED,
            "confirm_seed": CONFIRM_SEED, "repo.src_lines": src_lines(),
            "machine": platform.machine()}


def run_one(name: str, seed: int, seconds: float, trace: bool, results: Path | None) -> dict:
    w = Workload(name, seed)
    try:
        result = traced(w) if trace else end_to_end(w, seconds)
    finally:
        w.cleanup()
    result["correct"] = result["failed"] == 0
    for metric, (value, unit) in result["metrics"].items():
        note = result["samples"].get(metric, "")
        print(f"{name:16s} {metric:40s} {value:14.6g} {unit:6s} {note}")
    print(f"{name:16s} {'failed_ratio':40s} {result['extra']['failed_ratio']:14.6g} "
          f"{'ratio':6s} {result['failed']} of {result['attempted']} jobs")
    for problem in result["problems"][:20]:
        print(f"{name:16s} FAILED {problem}")
    record = {"workload": name, "trace": trace, "environment": environment(seed),
              "correct": result["correct"], "attempted": result["attempted"],
              "failed": result["failed"],
              "metrics": {k: {"value": v, "unit": u, "samples": result["samples"].get(k)}
                          for k, (v, u) in result["metrics"].items()},
              "extra": result["extra"], "problems": result["problems"]}
    path = results or OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def run_all(seed: int, seconds: float, trace: bool, results: Path | None) -> dict:
    """Each workload in its own fresh process, one after the other."""
    records = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
               "--results", str(OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json")]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, check=False, text=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {out.returncode}")
        records[name] = json.loads(
            (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").read_text())
    combined = {"environment": environment(seed), "workloads": records}
    if results is not None:
        results.parent.mkdir(parents=True, exist_ok=True)
        results.write_text(json.dumps(combined, indent=2) + "\n", encoding="utf-8")
    return {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {f"{name}.{k}": {"value": m["value"], "unit": m["unit"]}
                    for name, r in records.items() for k, m in r["metrics"].items()},
    }


def pin(name: str) -> None:
    """Record the digests of one round at the pinned seed in expected/."""
    w = Workload(name, PINNED_SEED, pins={})
    try:
        w.set_up()
        import qlefschetz.cli

        w.cli = qlefschetz.cli
        seen = w.loop(None, len(w.plan.round))
        w.check_invariants(seen)
        if any(seen.failed):
            raise RuntimeError("cannot pin failing jobs: " + "; ".join(seen.problems))
        digests = {w.plan.round[pos].key: d for pos, d in w.first_digest.items()}
    finally:
        w.cleanup()
    checks.EXPECTED_DIR.mkdir(exist_ok=True)
    path = checks.EXPECTED_DIR / f"{name}.json"
    body = {"workload": name, "seed": PINNED_SEED, "commit": commit(), "digests": digests}
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(digests)} job digests in {path.relative_to(ROOT)}")


def self_test() -> bool:
    """A corrupted pinned output must count as failed jobs; intact pins must not."""
    name = "obstruct-ladder"
    pins = checks.load_pins(name)
    import qlefschetz.cli

    outcomes = []
    for corrupt in (False, True):
        digests = dict(pins["digests"])
        victim = workloads.plan(name, PINNED_SEED).round[0].key
        if corrupt:
            digests[victim] = "0" * 32
        w = Workload(name, PINNED_SEED, pins={"digests": digests})
        w.cli = qlefschetz.cli
        try:
            w.set_up()
            seen = w.loop(None, 8)
            w.check_invariants(seen)
        finally:
            w.cleanup()
        outcomes.append((sum(seen.failed), len(seen.failed)))
        print(f"self-test: pins {'corrupted' if corrupt else 'intact'}: "
              f"{sum(seen.failed)} of {len(seen.failed)} jobs failed")
    return outcomes[0][0] == 0 and outcomes[1][0] >= 1


def exact_counters(record: dict) -> dict[str, float]:
    """The metrics of a traced results file that must repeat exactly."""
    exact = (".calls", ".in_max_bits", ".in_max_span", ".bytes", "_per_obstruct",
             "_per_generator", "trace.spans", "trace.jobs", "repo.src_lines")
    return {k: m["value"] for k, m in record["metrics"].items() if k.endswith(exact)}


def compare_counters(a: Path, b: Path) -> bool:
    first, second = (exact_counters(json.loads(p.read_text())) for p in (a, b))
    differing = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    for key in differing:
        print(f"differs: {key}: {first.get(key)} != {second.get(key)}")
    print(f"{len(first) - len(differing)} of {len(first)} exact counters identical")
    return not differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=None, help="results file to write")
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the expected digests of --workload (seed 1)")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare-counters", nargs=2, type=Path, metavar="RESULTS",
                        help="check that two traced results files agree on exact counters")
    args = parser.parse_args(argv)

    if not (SRC / "qlefschetz" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qlefschetz

    if Path(qlefschetz.__file__).resolve().parent != SRC / "qlefschetz":
        print(f"error: qlefschetz imported from {qlefschetz.__file__}", file=sys.stderr)
        return 2
    if args.self_test:
        return 0 if self_test() else 1
    if args.compare_counters:
        return 0 if compare_counters(*args.compare_counters) else 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.pin:
        pin(args.workload)
        return 0
    if args.workload == "all":
        summary = run_all(args.seed, args.seconds, bool(args.trace), args.results)
    else:
        record = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.results)
        summary = {k: record[k] for k in ("correct", "attempted", "failed")}
        summary["metrics"] = {k: {"value": m["value"], "unit": m["unit"]}
                              for k, m in record["metrics"].items()}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
