"""
Command-line front end.

Subcommands: verify, compute, obstruct, move, twist, catalog. Fibration
data travels in the JSON interchange format of the serialize module; every
command is deterministic, so identical inputs give byte-identical output.
Exit codes: 0 on success, 1 when a file fails validation, 2 for usage or
parse errors. Indices on the command line (move positions, twist letters,
target objects) are 1-based; the library itself is 0-based.

A cold process imports only what its command runs: the catalog, moves and
obstructions modules are imported inside the commands that use them.

Every file a command writes (--output, --classes-output) goes through
`_write_text`, which overwrites an existing file in place: the file keeps
its inode, mode, owner and links, and a rewrite does not pay for freeing
and reallocating the old blocks. A write is not atomic.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from typing import Any, Callable, Sequence

from .laurent import MAX_SPAN
from .lefschetz import ConsistencyError, LefschetzAlgebra
from .matrix import MAX_SIZE, KClass, LaurentMatrix
from .serialize import (
    FileFormatError,
    Rendered,
    class_specs_from_obj,
    classes_to_obj,
    dumps_canonical,
    fibration_from_obj,
    fibration_to_obj,
    kclass_from_obj,
    kclass_to_obj,
    matrix_to_obj,
    poly_to_obj,
)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConsistencyError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1
    except FileFormatError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except OSError as exc:
        print(f"cannot read or write: {exc}", file=sys.stderr)
        return 2
    except (IndexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it is the same every time."""
    parser = argparse.ArgumentParser(
        prog="qlef",
        description="Exact q-deformed intersection calculus for Lefschetz fibrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(group: Any, name: str, handler: Callable, help: str) -> argparse.ArgumentParser:
        """A subcommand: every one takes --format and --output."""
        p = group.add_parser(name, help=help)
        p.add_argument("--format", choices=("json", "table"), default="json", help="report style")
        p.add_argument("--output", default=None, help="also write the result file here")
        p.set_defaults(handler=handler)
        return p

    p = leaf(sub, "verify", _cmd_verify, "load a fibration file and validate it")
    p.add_argument("file")

    p = leaf(sub, "compute", _cmd_compute, "derive an invariant from a fibration file")
    p.add_argument(
        "what",
        choices=("det", "nullspace", "monodromy", "givental", "classical", "double-cover"),
    )
    p.add_argument("file")

    p = leaf(sub, "obstruct", _cmd_obstruct, "run the Lagrangian sphere obstruction report")
    p.add_argument("file")

    p = leaf(sub, "move", _cmd_move, "apply a basis move and write the moved file")
    p.add_argument("file")
    p.add_argument("kind", choices=("hurwitz", "hurwitz-inverse", "rescale", "shift"))
    p.add_argument("--k", type=int, required=True, help="1-based position or object")
    p.add_argument("--amount", type=int, default=1, help="weight shift for rescale")

    p = leaf(sub, "twist", _cmd_twist, "apply a Dehn twist word to a K-theory class")
    p.add_argument("file")
    p.add_argument("word", help='e.g. "t2 t1^-1 t4", rightmost letter first, 1-based')
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--target-index", type=int, default=None, help="1-based basis class")
    target.add_argument("--target-file", default=None, help="JSON file with a class vector")
    p.add_argument(
        "--generators-file",
        default=None,
        help="classes file whose generators the twist letters refer to",
    )

    p = sub.add_parser("catalog", help="emit a fibration file from the built-in families")
    cat = p.add_subparsers(dest="family", required=True)

    c = leaf(cat, "milnor", _cmd_catalog_milnor, "type-A sphere chain data")
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--classes-output", default=None, help="write the sphere classes here")

    c = leaf(cat, "xab", _cmd_catalog_xab, "cyclic band family for coprime 0 < a < b")
    c.add_argument("--a", type=int, required=True)
    c.add_argument("--b", type=int, required=True)
    c.add_argument("--n", type=int, required=True)

    c = leaf(cat, "mirror-p2", _cmd_catalog_mirror, "the mirror of the projective plane")
    c.add_argument("--n", type=int, required=True)

    c = leaf(cat, "induce", _cmd_catalog_induce, "induce a total space from fibre classes")
    c.add_argument("--fibre", required=True, help="fibre file; the total space's n is its n + 1")
    c.add_argument("--classes", required=True, help="classes file for the new cycles")

    return parser


# -- helpers --------------------------------------------------------------


def _read_json(path: str, where: str) -> Any:
    """
    Parse a JSON file. A key repeated in one object, nesting too deep to
    parse, text that is not UTF-8 and an integer literal beyond the
    interpreter's digit limit are format errors of `where`; a syntax error
    stays a JSONDecodeError.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise FileFormatError(f"{where}: JSON nested too deeply") from None
        except json.JSONDecodeError:
            raise
        except ValueError as exc:
            raise FileFormatError(f"{where}: {exc}") from None


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """The object of pairs; a repeated key is a ValueError, not a silent overwrite."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {json.dumps(key)}")
        obj[key] = value
    return obj


def _load_fibration(path: str) -> tuple[LefschetzAlgebra, list[str] | None]:
    return fibration_from_obj(_read_json(path, "fibration"))


def _write_text(path: str, text: str) -> None:
    """
    Write text to path as UTF-8, over an existing file's bytes in place and
    then cut a regular file to the new length; a FIFO or device is written
    as before. Opening without O_TRUNC keeps the file's inode, mode, owner,
    links and symlink target, as open(path, "w") does, and spares a rewrite
    the freeing and reallocation of its blocks.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        handle.write(data)
        handle.flush()
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate(len(data))


def _emit(
    args: argparse.Namespace,
    report: dict[str, Any],
    table_lines: Callable[[], list[str]],
    artifact: dict[str, Any] | None = None,
) -> int:
    """
    Write --output through `_write_text`, the artifact or else the report,
    then print the report, or the table lines (built only then); a file that
    cannot be written leaves stdout empty. Each is rendered once: a written
    artifact goes into the report as its Rendered text.
    """
    rendered = None
    if args.output is not None and artifact is not None:
        rendered = Rendered(dumps_canonical(artifact)[:-1])
        report = {k: rendered if v is artifact else v for k, v in report.items()}
    text = dumps_canonical(report) if args.format == "json" else None
    if args.output is not None:
        body = rendered + "\n" if rendered is not None else text or dumps_canonical(report)
        _write_text(args.output, body)
    sys.stdout.write(text if text is not None else "\n".join(table_lines()) + "\n")
    return 0


def _matrix_lines(title: str, m: LaurentMatrix) -> list[str]:
    return [f"{title}:"] + ["  " + line for line in str(m).splitlines()]


def _int_matrix_lines(title: str, rows: list[list[int]]) -> list[str]:
    if not rows:
        return [f"{title}: (empty)"]
    return _matrix_lines(title, LaurentMatrix.from_rows(rows))


def _emit_datum(args: argparse.Namespace, alg: LefschetzAlgebra, title: str) -> int:
    """Emit a built datum: its file form, or as a table its intersection matrix."""
    return _emit(args, fibration_to_obj(alg), lambda: _matrix_lines(title, alg.intersection))


# -- commands ------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    alg, labels = _load_fibration(args.file)
    report: dict[str, Any] = {
        "consistent": True,
        "n": alg.dim,
        "m": alg.size,
        "seifert": matrix_to_obj(alg.seifert),
        "intersection": matrix_to_obj(alg.intersection),
    }
    if labels is not None:
        report["labels"] = labels
    return _emit(
        args,
        report,
        lambda: [
            f"consistent fibration datum: n = {alg.dim}, m = {alg.size}",
            *_matrix_lines("Seifert matrix", alg.seifert),
            *_matrix_lines("intersection matrix", alg.intersection),
        ],
    )


def _cmd_compute(args: argparse.Namespace) -> int:
    alg, _ = _load_fibration(args.file)
    what = args.what
    if what == "det":
        value = alg.intersection.det()
        return _emit(args, {"det": poly_to_obj(value)}, lambda: [f"det = {value}"])
    if what == "nullspace":
        basis = alg.intersection.nullspace()
        return _emit(
            args,
            {"nullspace": [kclass_to_obj(v) for v in basis]},
            lambda: [f"nullspace rank {len(basis)}"] + [f"  {v}" for v in basis],
        )
    if what == "monodromy":
        n_q = alg.monodromy()
        return _emit(
            args,
            {"monodromy": matrix_to_obj(n_q)},
            lambda: _matrix_lines("q-monodromy", n_q),
        )
    if what == "givental":
        g = alg.charpoly_matrix()
        return _emit(
            args,
            {"givental": matrix_to_obj(g)},
            lambda: _matrix_lines("constant-Seifert deformation", g),
        )
    if what == "classical":
        seifert1, intersection1, monodromy1 = alg.specialize_classical()
        report = {
            "seifert": seifert1,
            "intersection": intersection1,
            "monodromy": monodromy1,
        }
        return _emit(
            args,
            report,
            lambda: _int_matrix_lines("classical Seifert matrix", seifert1)
            + _int_matrix_lines("classical intersection matrix", intersection1)
            + _int_matrix_lines("classical monodromy", monodromy1),
        )
    cover, matching = alg.double_cover()
    artifact = fibration_to_obj(cover)
    report = {
        "fibration": artifact,
        "matching_classes": [kclass_to_obj(s) for s in matching],
    }
    return _emit(
        args,
        report,
        lambda: _matrix_lines("double cover Seifert matrix", cover.seifert)
        + ["matching classes:"]
        + [f"  {s}" for s in matching],
        artifact=artifact,
    )


def _cmd_obstruct(args: argparse.Namespace) -> int:
    from .obstructions import betti_lower_bound, sphere_test

    alg, _ = _load_fibration(args.file)
    result = sphere_test(alg)
    classes = [kclass_to_obj(h) for h in result.kernel]
    generators = [
        {
            "class": h,
            "self_pairing": poly_to_obj(p),
            "betti_lower_bound": betti_lower_bound(p),
        }
        for h, p in zip(classes, result.self_pairings)
    ]
    report: dict[str, Any] = {
        "kernel_rank": len(classes),
        "kernel": classes,
        "generators": generators,
        "verdict": result.verdict.value,
        "branch": result.branch,
        "witness": None if result.witness is None else poly_to_obj(result.witness),
        "reason": result.reason,
    }

    def lines() -> list[str]:
        out = [f"verdict: {result.verdict.value} ({result.branch})"]
        if result.witness is not None:
            out.append(f"witness: {result.witness}")
        if result.reason is not None:
            out.append(f"reason: {result.reason}")
        out.append(f"kernel rank: {len(classes)}")
        for h, p, g in zip(result.kernel, result.self_pairings, generators):
            out.append(f"  generator {h}")
            out.append(f"    self-pairing {p}")
            out.append(f"    betti lower bound {g['betti_lower_bound']}")
        return out

    return _emit(args, report, lines)


def _cmd_move(args: argparse.Namespace) -> int:
    from .moves import hurwitz_inverse_move, hurwitz_move, rescale_object, shift_object

    alg, labels = _load_fibration(args.file)
    k = args.k - 1
    transition: LaurentMatrix | None = None
    if args.kind == "hurwitz":
        moved, transition = hurwitz_move(alg, k)
    elif args.kind == "hurwitz-inverse":
        moved, transition = hurwitz_inverse_move(alg, k)
    elif args.kind == "rescale":
        moved = rescale_object(alg, k, args.amount)
    else:
        moved = shift_object(alg, k)
    try:
        artifact = fibration_to_obj(moved, labels)
    except ValueError:
        if args.kind != "rescale":
            raise
        # A rescale moves exponents only, and the loaded datum kept every file limit.
        raise ValueError(
            f"--amount {args.amount} moves an exponent past {MAX_SPAN // 2} in absolute value"
        ) from None
    report: dict[str, Any] = {"move": args.kind, "k": args.k, "fibration": artifact}
    if args.kind == "rescale":
        report["amount"] = args.amount
    if transition is not None:
        report["transition"] = matrix_to_obj(transition)

    def lines() -> list[str]:
        out = [f"applied {args.kind} at position {args.k}"]
        if args.kind == "rescale":
            out[0] += f" with weight shift {args.amount}"
        if transition is not None:
            out += _matrix_lines("transition matrix", transition)
        return out + _matrix_lines("new intersection matrix", moved.intersection)

    return _emit(args, report, lines, artifact=artifact)


def _cmd_twist(args: argparse.Namespace) -> int:
    from .moves import TwistWord, _checked, apply_twist_word

    alg, _ = _load_fibration(args.file)
    word = TwistWord.parse(args.word)
    generators = [KClass.basis_vector(alg.size, i) for i in range(alg.size)]
    if args.generators_file is not None:
        parsed, _ = class_specs_from_obj(_read_json(args.generators_file, "classes"), alg.size)
        if parsed is None:
            raise FileFormatError("classes.generators: missing from generators file")
        generators = parsed
    if args.target_index is not None:
        _checked("target index", args.target_index - 1, alg.size)
        target = KClass.basis_vector(alg.size, args.target_index - 1)
    else:
        obj = _read_json(args.target_file, "target")
        if isinstance(obj, dict) and "vector" not in obj:
            raise FileFormatError("target.vector: missing")
        where = "target.vector" if isinstance(obj, dict) else "target"
        target = kclass_from_obj(obj["vector"] if isinstance(obj, dict) else obj, where, alg.size)
    result = apply_twist_word(alg, generators, word, target)
    report = {"word": str(word), "class": kclass_to_obj(result)}
    return _emit(args, report, lambda: [f"word: {word}", f"class: {result}"])


def _within_budget(m: int, options: str) -> None:
    """Refuse typed sizes that ask for a datum of more than MAX_SIZE objects, naming them."""
    if m > MAX_SIZE:
        raise ValueError(f"{options} asks for m = {m}, over the size budget of {MAX_SIZE}")


def _cmd_catalog_milnor(args: argparse.Namespace) -> int:
    _within_budget(args.r + 1, f"--r {args.r}")
    from .catalog import milnor_ar

    fibre, spheres = milnor_ar(args.r, args.n)
    artifact = fibration_to_obj(fibre)
    report = {
        "fibration": artifact,
        "sphere_classes": [kclass_to_obj(s) for s in spheres],
    }
    if args.classes_output is not None:
        classes = classes_to_obj(list(spheres), [])
        _write_text(args.classes_output, dumps_canonical(classes))
    return _emit(
        args,
        report,
        lambda: _matrix_lines("Mukai pairing matrix", fibre.seifert)
        + ["sphere classes:"]
        + [f"  {s}" for s in spheres],
        artifact=artifact,
    )


def _cmd_catalog_xab(args: argparse.Namespace) -> int:
    _within_budget(args.a + args.b, f"--a {args.a} --b {args.b}")
    from .catalog import xab

    alg = xab(args.a, args.b, args.n)
    return _emit_datum(args, alg, f"intersection matrix of the ({args.a}, {args.b}) family")


def _cmd_catalog_mirror(args: argparse.Namespace) -> int:
    from .catalog import mirror_p2

    return _emit_datum(args, mirror_p2(args.n), "intersection matrix of the mirror plane")


def _cmd_catalog_induce(args: argparse.Namespace) -> int:
    from .catalog import induced_total_space

    fibre, _ = _load_fibration(args.fibre)
    generators, specs = class_specs_from_obj(_read_json(args.classes, "classes"), fibre.size)
    if specs is None:
        raise FileFormatError("classes.classes: missing from classes file")
    alg = induced_total_space(fibre, specs, generators)
    return _emit_datum(args, alg, "induced intersection matrix")


if __name__ == "__main__":
    raise SystemExit(main())
