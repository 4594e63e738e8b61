"""
Named mutants of src/qlefschetz, each with the tier-1 tests that must kill it.

    python tests/mutants.py [NAME ...]

runs every mutant, or the named ones. For each it copies src/ into a
temporary directory, replaces the mutant's text (which must occur exactly
once) and runs the mutant's test ids against the copy with `pytest -x -q`.
The mutant is killed when those tests fail, and survives when they pass.
One line per mutant gives the verdict and the seconds taken; the exit code
is 1 if any mutant survived or could not be run.

pytest does not collect this file (it has no test_ prefix).
tests/test_mutant_texts.py checks that every mutant's text still occurs
exactly once in src/, so a refactor that moves the text must update the
mutant. A change that tries a mutant by hand adds it here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/qlefschetz
    text: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "kernel-without-zero-skip",
        "laurent.py",
        "            if x:\n"
        "                j = k\n"
        "                for y in yc:\n"
        "                    buf[j] += x * y\n"
        "                    j += 1\n",
        "            j = k\n"
        "            for y in yc:\n"
        "                buf[j] += x * y\n"
        "                j += 1\n",
        ("tests/test_file_limits.py::test_monodromy_of_a_hostile_datum_stays_fast",),
    ),
    Mutant(
        "pseudo-remainder-without-zero-top-skip",
        "laurent.py",
        "        if top:\n"
        "            g = math.gcd(top, lead)\n"
        "            scale, factor = lead // g, top // g\n"
        "            rem = [scale * x for x in rem]\n"
        "            for i, y in enumerate(b[:-1], len(rem) + 1 - n):\n"
        "                rem[i] -= factor * y\n",
        "        g = math.gcd(top, lead)\n"
        "        scale, factor = lead // g, top // g\n"
        "        rem = [scale * x for x in rem]\n"
        "        for i, y in enumerate(b[:-1], len(rem) + 1 - n):\n"
        "            rem[i] -= factor * y\n",
        ("tests/test_laurent.py::test_gcd_of_sparse_wide_polynomials_stays_fast",),
    ),
    Mutant(
        "long-division-without-zero-quotient-skip",
        "laurent.py",
        "            if c:\n"
        "                j = i\n"
        "                for v in low:\n"
        "                    buf[j] -= c * v\n"
        "                    j += 1\n",
        "            j = i\n"
        "            for v in low:\n"
        "                buf[j] -= c * v\n"
        "                j += 1\n",
        ("tests/test_cross_div.py::test_a_quotient_with_long_zero_runs_divides_fast",),
    ),
    Mutant(
        "inverse-without-negation",
        "matrix.py",
        "[[-x for x in self.row(p)[p + 1 :]] for p in range(m)]",
        "[[x for x in self.row(p)[p + 1 :]] for p in range(m)]",
        ("tests/test_lefschetz.py::test_monodromy_defining_property",),
    ),
    Mutant(
        "kernel-without-remainder-check",
        "laurent.py",
        "            if r:\n                break\n",
        "            if False:\n                break\n",
        ("tests/test_cross_div.py::test_products_and_exact_div_edge_cases",),
    ),
    Mutant(
        "det-one-for-repeated-rows",
        "matrix.py",
        "        if len(rows) < self.rows:\n            return LaurentPoly.zero()\n",
        "        if len(rows) < self.rows:\n            return LaurentPoly.one()\n",
        ("tests/test_banded_elimination.py::test_repeated_rows_at_sample_points",),
    ),
    Mutant(
        "row-key-on-two-entries",
        "matrix.py",
        "tuple([(p._val, p._coeffs) for p in row])",
        "tuple([(p._val, p._coeffs) for p in row[:2]])",
        ("tests/test_banded_elimination.py::test_repeated_rows_at_sample_points",),
    ),
    Mutant(
        "no-check-of-the-fast-precision",
        "matrix.py",
        "    return all(\n"
        "        not sum(map(operator.mul, row, v))\n"
        "        for v in _packed(kernel, bits, [0] * len(kernel)) for row in packed_rows\n"
        "    )\n",
        "    return True\n",
        ("tests/test_banded_elimination.py::test_a_false_zero_pivot_falls_back",),
    ),
    Mutant(
        "check-precision-one-byte-low",
        "matrix.py",
        "    bits = -(-(max(norm * top, norm, top).bit_length() + 1) // 8) * 8\n",
        "    bits = -(-max(norm * top, norm, top).bit_length() // 8) * 8\n",
        ("tests/test_banded_elimination.py::test_the_check_precision_holds_the_bound",),
    ),
    Mutant(
        "window-of-the-rows-alone",
        "matrix.py",
        "    window = min(sum(widths), sum(w for _, w, _, _ in by_col))\n",
        "    window = sum(widths)\n",
        ("tests/test_file_limits.py::test_the_window_is_the_lesser_of_rows_and_columns",),
    ),
    Mutant(
        "window-of-the-columns-alone",
        "matrix.py",
        "    window = min(sum(widths), sum(w for _, w, _, _ in by_col))\n",
        "    window = sum(w for _, w, _, _ in by_col)\n",
        ("tests/test_file_limits.py::test_the_window_is_the_lesser_of_rows_and_columns",),
    ),
    Mutant(
        "row-shift-from-the-first-nonzero-entry",
        "matrix.py",
        "    return min(lows), max(highs) - min(lows),",
        "    return lows[0], max(highs) - min(lows),",
        ("tests/test_banded_elimination.py::test_echelon_rows_equal_plain_bareiss",),
    ),
    Mutant(
        "fast-fit-refusing-minus-2-to-the-31",
        "matrix.py",
        "    fits = all(-half <= r[3] and r[4] < half for r in records.values())\n",
        "    fits = all(-half < r[3] and r[4] < half for r in records.values())\n",
        (
            "tests/test_banded_elimination.py"
            "::test_an_input_coefficient_beyond_31_bits_stays_proven",
        ),
    ),
    Mutant(
        "no-stale-pivot-refresh",
        "matrix.py",
        "        if den[r] != prev:\n",
        "        if False:\n",
        ("tests/test_banded_elimination.py::test_echelon_rows_equal_plain_bareiss",),
    ),
    Mutant(
        "elimination-without-the-fast-precision",
        "matrix.py",
        "    fast = _FAST_BITS if fits and _FAST_BITS < proven else None\n",
        "    fast = None\n",
        ("tests/test_banded_elimination.py::test_the_fast_precision_keeps_a_wide_kernel_fast",),
    ),
    Mutant(
        "stale-row-divided-by-the-latest-pivot",
        "matrix.py",
        "                row[j] = (row[j] * pivot - head * prow[j]) // d\n",
        "                row[j] = (row[j] * pivot - head * prow[j]) // prev\n",
        ("tests/test_banded_elimination.py::test_example_takes_both_stale_row_paths",),
    ),
    Mutant(
        "relation-without-star",
        "lefschetz.py",
        "y = lower[key] = minus_sq * x.star()",
        "y = lower[key] = minus_sq * x",
        ("tests/test_triangle_validation.py::test_from_seifert_builds_the_full_regeneration",),
    ),
    Mutant(
        "congruence-with-g-star",
        "matrix.py",
        "    return r.star_transpose() @ gram @ r\n",
        "    return r.star_transpose() @ gram.star_transpose() @ r\n",
        ("tests/test_pairing_matrix.py::test_congruence_equals_the_pairwise_matrix",),
    ),
    Mutant(
        "congruence-with-r-unstarred",
        "matrix.py",
        "    return r.star_transpose() @ gram @ r\n",
        "    return LaurentMatrix(r.cols, m, tuple(x for j in range(r.cols)"
        " for x in r.entries[j :: r.cols])) @ gram @ r\n",
        ("tests/test_pairing_matrix.py::test_congruence_equals_the_pairwise_matrix",),
    ),
    Mutant(
        "twist-with-transposed-pairing",
        "moves.py",
        "    return c1 - c0.scale(alg.pairing(c0, c1))\n",
        "    return c1 - c0.scale(alg.pairing(c1, c0))\n",
        ("tests/test_induction_braids.py::test_hurwitz_moves_are_induced_by_fibre_twists",),
    ),
    Mutant(
        "inverse-twist-with-flipped-sign",
        "moves.py",
        "    return c1 - c0.scale(scalar)\n",
        "    return c1 + c0.scale(scalar)\n",
        ("tests/test_induction_braids.py::test_hurwitz_moves_are_induced_by_fibre_twists",),
    ),
    Mutant(
        "inverse-twist-with-the-other-parity",
        "moves.py",
        "LaurentPoly.monomial(alg.parity_sign, -1)",
        "LaurentPoly.monomial(-alg.parity_sign, -1)",
        ("tests/test_induction_braids.py::test_hurwitz_moves_are_induced_by_fibre_twists",),
    ),
    Mutant(
        "move-without-the-first-row",
        "moves.py",
        "    for i in range(0, m * m, m):\n",
        "    for i in range(m, m * m, m):\n",
        ("tests/test_moves.py",),
    ),
    Mutant(
        "move-without-the-last-row",
        "moves.py",
        "    for i in range(0, m * m, m):\n",
        "    for i in range(0, m * m - m, m):\n",
        ("tests/test_moves.py",),
    ),
    Mutant(
        "move-transition-without-its-block",
        "moves.py",
        "        c[(k + i) * m + k : (k + i) * m + k + t] = row\n",
        "        pass\n",
        ("tests/test_moves.py",),
    ),
    Mutant(
        "move-without-the-star-on-the-block",
        "moves.py",
        "        column_star = [x.star() for x in column]\n",
        "        column_star = list(column)\n",
        ("tests/test_moves.py",),
    ),
    Mutant(
        "writer-without-truncate",
        "cli.py",
        "            handle.truncate(len(data))\n",
        "            pass\n",
        ("tests/test_output_files.py",),
    ),
    Mutant(
        "certificate-from-the-value-alone",
        "obstructions.py",
        "    return bound != 0, bound\n",
        "    return p.eval_at_one() != 0, bound\n",
        (
            "tests/test_obstructions.py"
            "::test_the_first_certificate_is_the_order_of_vanishing_at_one",
        ),
    ),
    Mutant(
        "rescale-refused-as-a-cell",
        "cli.py",
        '        if args.kind != "rescale":\n            raise\n',
        "        raise\n",
        ("tests/test_cli.py::test_move_writes_only_files_it_can_read",),
    ),
    Mutant(
        "certificate-in-column-major-order",
        "obstructions.py",
        "        i, j = divmod(ij, len(classes))\n",
        "        j, i = divmod(ij, len(classes))\n",
        ("tests/test_pairing_matrix.py",),
    ),
    Mutant(
        "certificate-with-the-parity-flipped",
        "obstructions.py",
        "    if alg.parity_sign == 1:\n",
        "    if alg.parity_sign == -1:\n",
        ("tests/test_obstructions.py",),
    ),
    Mutant(
        "pairing-without-the-length-check",
        "matrix.py",
        "        if len(c) != m:\n",
        "        if False:\n",
        ("tests/test_catalog.py::test_induced_total_space_names_a_class_of_wrong_length",),
    ),
    Mutant(
        "sphere-test-deciding-rank-3",
        "obstructions.py",
        "    if len(kernel) > 1:\n",
        "    if len(kernel) == 2:\n",
        ("tests/test_identities.py",),
    ),
    Mutant(
        "sphere-test-deciding-rank-4",
        "obstructions.py",
        "    if len(kernel) > 1:\n",
        "    if 1 < len(kernel) < 4:\n",
        ("tests/test_identities.py",),
    ),
    Mutant(
        "kernel-of-at-most-two-classes",
        "obstructions.py",
        "    return alg.intersection.nullspace()\n",
        "    return alg.intersection.nullspace()[:2]\n",
        ("tests/test_identities.py",),
    ),
    Mutant(
        "mirror-plane-resolving-its-words-twice",
        "catalog.py",
        "    return induced_total_space(fibre, specs, spheres)\n",
        "    induced_total_space(fibre, specs, spheres)\n"
        "    return induced_total_space(fibre, specs, spheres)\n",
        ("tests/test_call_counts.py::test_subcommand_computes_each_value_once",),
    ),
    Mutant(
        "catalog-importing-obstructions",
        "catalog.py",
        "from .moves import TwistWord, _checked, apply_twist_word\n",
        "from . import obstructions  # noqa: F401\n"
        "from .moves import TwistWord, _checked, apply_twist_word\n",
        ("tests/test_cold_start.py",),
    ),
    Mutant(
        "det-returning-its-star",
        "matrix.py",
        "        return _unpack(sign * last, proven, sum(shifts))\n",
        "        return _unpack(sign * last, proven, sum(shifts)).star()\n",
        ("tests/test_acceptance.py",),
    ),
    Mutant(
        "induced-total-space-three-dimensions-up",
        "catalog.py",
        "        fibre.dim + 1, pairing_matrix(fibre.seifert, resolved)\n",
        "        fibre.dim + 3, pairing_matrix(fibre.seifert, resolved)\n",
        ("tests/test_readme.py::test_the_readme_classes_induce_an_odd_total_space",),
    ),
    Mutant(
        "repeated-key-kept",
        "cli.py",
        "        if key in obj:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_a_repeated_key_names_the_file",),
    ),
    Mutant(
        "size-budget-one-too-high",
        "cli.py",
        "    if m > MAX_SIZE:\n",
        "    if m > MAX_SIZE + 1:\n",
        ("tests/test_cli.py::test_catalog_refuses_a_size_over_the_budget",),
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Write the mutant into the copy of src/ at src; its text must occur exactly once."""
    path = src / "qlefschetz" / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.text)
    if count != 1:
        raise ValueError(f"{mutant.name}: text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.text, mutant.replacement), encoding="utf-8")


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error', after running the mutant's tests on a mutated copy."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        apply(mutant, src)
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        # The ini file puts the checkout's src/ first on sys.path; point it at the copy.
        argv += ["-o", f"pythonpath={src}", *mutant.tests]
        code = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True).returncode
    return {0: "survived", 1: "killed"}.get(code, "error")


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in [known[n] for n in names] if names else MUTANTS:
        start = time.perf_counter()
        verdict = run(mutant)
        failed += verdict != "killed"
        print(f"{verdict:8s} {time.perf_counter() - start:6.1f} s  {mutant.name}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
