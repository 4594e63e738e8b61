"""
Span tracing of the program's layers, from outside the program.

`Tracer.install()` replaces the public functions of each `qlefschetz`
module with wrappers that record one span per call: name, start, end,
parent span and job id. Every module that imported a traced function under
its own name gets the wrapper too (for example `cli.sphere_test`), and so
does every class attribute bound to the same function (`LaurentPoly.__rmul__`
is `__mul__`). `uninstall()` puts the originals back.

Spans are kept in memory in flat arrays and written out by `dump()`. A
span's self time is its duration minus the time its child spans cover,
minus the time the tracer spent inside it measuring operand sizes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable

COLUMNS = (("name", "H"), ("start", "d"), ("end", "d"), ("parent", "q"), ("job", "q"),
           ("probe_s", "d"))


def _fold_size(tracer: Tracer, name: str, value: Any) -> None:
    """Fold an operand's coefficient bit length and exponent span into the maxima."""
    if isinstance(value, int):
        bits, span = abs(value).bit_length(), 0
    elif value.is_zero():
        return
    else:
        bits = max(abs(c).bit_length() for _, c in value.items())
        span = value.span()
    maxima = tracer.maxima
    if bits > maxima[name + ".in_max_bits"]:
        maxima[name + ".in_max_bits"] = bits
    if span > maxima[name + ".in_max_span"]:
        maxima[name + ".in_max_span"] = span


def _operand_sizes(tracer: Tracer, name: str, args: tuple) -> None:
    _fold_size(tracer, name, args[0])
    _fold_size(tracer, name, args[1])


def _file_bytes(tracer: Tracer, name: str, args: tuple) -> None:
    tracer.counts[name + ".bytes"] += os.path.getsize(args[0])


def _text_bytes(tracer: Tracer, name: str, result: str) -> None:
    tracer.counts[name + ".bytes"] += len(result.encode("utf-8"))


# (module, attribute, span name, probe before the call, probe after it).
# "Class.method" is patched on the class. Probe time is not self time.
TARGETS: tuple[tuple[str, str, str, Any, Any], ...] = (
    ("laurent", "LaurentPoly.__mul__", "laurent.mul", _operand_sizes, None),
    ("laurent", "LaurentPoly.exact_div", "laurent.exact_div", None, None),
    ("laurent", "laurent_gcd", "laurent.gcd", _operand_sizes, None),
    ("matrix", "LaurentMatrix.det", "matrix.det", None, None),
    ("matrix", "LaurentMatrix.rank", "matrix.rank", None, None),
    ("matrix", "LaurentMatrix.nullspace", "matrix.nullspace", None, None),
    ("matrix", "KClass.canonical_primitive", "matrix.canonical_primitive", None, None),
    ("matrix", "LaurentMatrix.__matmul__", "matrix.matmul", None, None),
    ("matrix", "LaurentMatrix.unitriangular_inverse", "matrix.unitriangular_inverse", None, None),
    ("matrix", "gram_pairing", "matrix.gram_pairing", None, None),
    ("lefschetz", "LefschetzAlgebra.from_intersection", "lefschetz.validate", None, None),
    ("lefschetz", "LefschetzAlgebra.from_seifert", "lefschetz.validate", None, None),
    ("lefschetz", "LefschetzAlgebra.monodromy", "lefschetz.monodromy", None, None),
    ("lefschetz", "LefschetzAlgebra.double_cover", "lefschetz.double_cover", None, None),
    ("lefschetz", "LefschetzAlgebra.charpoly_matrix", "lefschetz.charpoly_matrix", None, None),
    ("lefschetz", "LefschetzAlgebra.specialize_classical", "lefschetz.specialize_classical",
     None, None),
    ("moves", "hurwitz_move", "moves.hurwitz", None, None),
    ("moves", "hurwitz_inverse_move", "moves.hurwitz", None, None),
    ("moves", "rescale_object", "moves.diagonal", None, None),
    ("moves", "shift_object", "moves.diagonal", None, None),
    ("moves", "apply_twist_word", "moves.twist_word", None, None),
    ("obstructions", "sphere_test", "obstructions.sphere_test", None, None),
    ("obstructions", "kernel_classes", "obstructions.kernel_classes", None, None),
    ("obstructions", "self_pairing", "obstructions.self_pairing", None, None),
    ("catalog", "milnor_ar", "catalog.build", None, None),
    ("catalog", "induced_total_space", "catalog.build", None, None),
    ("catalog", "xab", "catalog.build", None, None),
    ("catalog", "mirror_p2", "catalog.build", None, None),
    # The file-reading step of every command: open, JSON parse, entry parse.
    ("cli", "_load_fibration", "serialize.load", _file_bytes, None),
    ("serialize", "poly_to_obj", "serialize.dump", None, None),
    ("serialize", "matrix_to_obj", "serialize.dump", None, None),
    ("serialize", "kclass_to_obj", "serialize.dump", None, None),
    ("serialize", "fibration_to_obj", "serialize.dump", None, None),
    ("serialize", "dumps_canonical", "serialize.dump", None, _text_bytes),
    ("cli", "main", "cli.main", None, None),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.cols: dict[str, array] = {c: array(t) for c, t in COLUMNS}
        self.current_job = -1
        self.maxima: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable, before: Any = None, after: Any = None) -> Callable:
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack
        names, starts, ends, parents, jobs, probes = self.cols.values()
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.current_job)
            ends.append(0.0)
            probes.append(0.0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            spent = 0.0
            try:
                if before is not None:
                    before(tracer, name, args)
                    spent = clock() - t0
                result = fn(*args, **kwargs)
                if after is not None:
                    t = clock()
                    after(tracer, name, result)
                    spent += clock() - t
                return result
            finally:
                ends[idx] = clock()
                probes[idx] = spent
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch every target in the loaded `qlefschetz` modules."""
        for modname, attr, name, before, after in TARGETS:
            module = importlib.import_module("qlefschetz." + modname)
            owner_name, _, fname = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[fname]
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self.wrap(name, func, before, after)
            replacement = classmethod(wrapped) if isinstance(raw, classmethod) else wrapped
            holders = [m for n, m in sys.modules.items() if n.split(".")[0] == "qlefschetz"]
            if owner_name:
                holders.append(owner)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is raw:
                        self._undo.append((holder, key, raw))
                        setattr(holder, key, replacement)

    def uninstall(self) -> None:
        for holder, key, raw in reversed(self._undo):
            setattr(holder, key, raw)
        self._undo.clear()

    # -- storage -------------------------------------------------------

    def dump(self, path: Path) -> None:
        header = {"names": self.names, "spans": len(self.cols["name"]),
                  "maxima": dict(self.maxima), "counts": dict(self.counts)}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for col in self.cols.values():
                col.tofile(handle)

    def absorb(self, path: Path, job: int) -> None:
        """Append the spans another process dumped, under job id `job`."""
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            n = header["spans"]
            other = {}
            for col, typecode in COLUMNS:
                other[col] = array(typecode)
                other[col].fromfile(handle, n)
        offset = len(self.cols["name"])
        ids = [self._id(name) for name in header["names"]]
        self.cols["name"].extend(ids[i] for i in other["name"])
        self.cols["parent"].extend(p + offset if p >= 0 else -1 for p in other["parent"])
        self.cols["job"].extend(job for _ in range(n))
        for col in ("start", "end", "probe_s"):
            self.cols[col].extend(other[col])
        for key, value in header["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)
        self.counts.update(header["counts"])

    # -- analysis ------------------------------------------------------

    def summary(self, jobs_only: bool) -> dict[str, dict[str, float]]:
        """
        Per span name: calls, and self seconds summed over its spans. With
        jobs_only, spans recorded outside a job (job id < 0) are left out.
        """
        c = self.cols
        n = len(c["name"])
        covered = [0.0] * n
        for i in range(n):
            p = c["parent"][i]
            if p >= 0:
                covered[p] += c["end"][i] - c["start"][i]
        out = {name: {"calls": 0, "s": 0.0} for name in self.names}
        for i in range(n):
            if jobs_only and c["job"][i] < 0:
                continue
            entry = out[self.names[c["name"][i]]]
            entry["calls"] += 1
            entry["s"] += c["end"][i] - c["start"][i] - covered[i] - c["probe_s"][i]
        return out

    def inclusive_s(self, names: set[str]) -> float:
        """Job time inside spans of the given names, nested ones counted once."""
        c = self.cols
        wanted = {i for i, name in enumerate(self.names) if name in names}
        inside = bytearray(len(c["name"]))
        total = 0.0
        for i, nid in enumerate(c["name"]):
            p = c["parent"][i]
            if p >= 0 and inside[p]:
                inside[i] = 1
                total -= c["probe_s"][i]
            elif nid in wanted and c["job"][i] >= 0:
                inside[i] = 1
                total += c["end"][i] - c["start"][i] - c["probe_s"][i]
        return total

    def calls_in_jobs(self, name: str, jobs: set[int]) -> int:
        if name not in self.names:
            return 0
        nid = self.names.index(name)
        return sum(1 for i, j in zip(self.cols["name"], self.cols["job"]) if i == nid and j in jobs)
