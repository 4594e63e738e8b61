"""
Canonical JSON interchange for fibration data.

One wire format for everything: a Laurent polynomial is a sorted array of
[exponent, coefficient] pairs with coefficients as decimal strings (safe
for readers limited to 64-bit integers), a matrix is a row-major nested
array of those with explicit "rows"/"cols" fields, and a fibration file is
an object {"n": ..., "m": ..., "A": ...} or {"n": ..., "m": ..., "B": ...}
with exactly one of the two matrices present ("A" the Seifert matrix, "B"
the intersection matrix) and an optional list of basis labels. Canonical
dumps sort keys and use a fixed layout, so identical data gives identical
bytes.

The layout is that of json.dumps(obj, indent=2, sort_keys=True) plus a
final newline, byte for byte, but dumps_canonical renders it itself: the
standard encoder falls back to pure Python whenever it indents, and the
[exponent, coefficient] pairs that make up most of every file then cost a
call per bracket. Here each pair is one string template, strings are
quoted by the encoder's own C escaping function, and integers of any size
are written (json.dumps stops at the interpreter's 4300-digit limit).
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Any

from .laurent import MAX_DIGITS, MAX_SPAN, LaurentPoly, _decimal
from .lefschetz import LefschetzAlgebra
from .matrix import KClass, LaurentMatrix

if TYPE_CHECKING:
    from .catalog import ClassSpec


class FileFormatError(ValueError):
    """Malformed interchange data; the message names the offending field."""


def poly_to_obj(p: LaurentPoly) -> list[list[Any]]:
    return p.to_pairs()


def _parse_cells(cells: list[Any], where: str) -> list[LaurentPoly]:
    """The polynomials in cells; a bad one is a FileFormatError naming where[index]."""
    polys: list[LaurentPoly] = []
    for i, cell in enumerate(cells):
        try:
            if not isinstance(cell, list):
                raise ValueError("expected an array of [exponent, coefficient]")
            polys.append(LaurentPoly.from_pairs(cell))
        except (ValueError, TypeError) as exc:
            raise FileFormatError(f"{where}[{i}]: {exc}") from exc
    return polys


def matrix_to_obj(m: LaurentMatrix) -> dict[str, Any]:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[poly_to_obj(p) for p in m.row(i)] for i in range(m.rows)],
    }


def matrix_from_obj(obj: Any, where: str = "matrix") -> LaurentMatrix:
    if not isinstance(obj, dict):
        raise FileFormatError(f"{where}: expected an object with rows/cols/entries")
    for field in ("rows", "cols", "entries"):
        if field not in obj:
            raise FileFormatError(f"{where}.{field}: missing")
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    for field, size in (("rows", rows), ("cols", cols)):
        # type(), not isinstance(), here and below: JSON true must not pass as 1.
        if type(size) is not int or size < 0:
            raise FileFormatError(f"{where}.{field}: expected a nonnegative integer")
    if not isinstance(entries, list) or len(entries) != rows:
        raise FileFormatError(f"{where}.entries: expected {rows} rows")
    flat: list[LaurentPoly] = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise FileFormatError(f"{where}.entries[{i}]: expected {cols} columns")
        flat += _parse_cells(row, f"{where}.entries[{i}]")
    return LaurentMatrix(rows, cols, tuple(flat))


def kclass_to_obj(k: KClass) -> list[list[Any]]:
    return [poly_to_obj(c) for c in k.coords]


def kclass_from_obj(obj: Any, where: str = "class") -> KClass:
    if not isinstance(obj, list):
        raise FileFormatError(f"{where}: expected an array of polynomials")
    return KClass(_parse_cells(obj, where))


def fibration_to_obj(
    alg: LefschetzAlgebra, labels: list[str] | None = None
) -> dict[str, Any]:
    """Canonical file form (always B); an entry from_pairs would refuse is a ValueError."""
    b, bound = alg.intersection, MAX_SPAN // 2
    for k, p in enumerate(b.entries):
        # p's exponents run from p._val to p._val + len(p._coeffs) - 1.
        if p._val < -bound or p._val + len(p._coeffs) > bound + 1:
            i, j = divmod(k, b.cols)
            exp = p._val if p._val < -bound else p.degree()
            raise ValueError(
                f"fibration.B.entries[{i}][{j}]: exponent {exp} exceeds {bound} in absolute value"
            )
    # Only a coefficient of MAX_DIGITS * 3321 // 1000 bits or more can have
    # more than MAX_DIGITS digits (log2(10) > 3.321). One C-level pass finds
    # whether there is one; only then does each entry take the loader's check.
    bits = max(map(int.bit_length, chain.from_iterable([p._coeffs for p in b.entries])), default=0)
    if bits >= MAX_DIGITS * 3321 // 1000:
        for k, p in enumerate(b.entries):
            try:
                LaurentPoly.from_pairs(p.to_pairs())
            except ValueError as exc:
                i, j = divmod(k, b.cols)
                raise ValueError(f"fibration.B.entries[{i}][{j}]: {exc}") from None
    obj: dict[str, Any] = {
        "n": alg.dim,
        "m": alg.size,
        "B": matrix_to_obj(b),
    }
    if labels is not None:
        obj["labels"] = list(labels)
    return obj


def fibration_from_obj(
    obj: Any, n_override: int | None = None
) -> tuple[LefschetzAlgebra, list[str] | None]:
    """
    Parse and validate a fibration file object. Either matrix key is
    accepted; validation of the intersection relation runs on load and
    surfaces as ConsistencyError.
    """
    if not isinstance(obj, dict):
        raise FileFormatError("fibration: expected a JSON object")
    if type(obj.get("n")) is not int:
        raise FileFormatError("fibration.n: missing or not an integer")
    if type(obj.get("m")) is not int or obj["m"] < 0:
        raise FileFormatError("fibration.m: missing or not a nonnegative integer")
    has_a, has_b = "A" in obj, "B" in obj
    if has_a == has_b:
        raise FileFormatError("fibration: exactly one of 'A' and 'B' must be present")
    n = obj["n"] if n_override is None else n_override
    m = obj["m"]
    key = "A" if has_a else "B"
    matrix = matrix_from_obj(obj[key], f"fibration.{key}")
    if matrix.rows != m or matrix.cols != m:
        raise FileFormatError(
            f"fibration.{key}: shape {matrix.rows}x{matrix.cols} does not match m = {m}"
        )
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise FileFormatError("fibration.labels: expected an array of strings")
        if len(labels) != m:
            raise FileFormatError(f"fibration.labels: expected {m} entries")
    if has_a:
        alg = LefschetzAlgebra.from_seifert(n, matrix)
    else:
        alg = LefschetzAlgebra.from_intersection(n, matrix)
    return alg, labels


def class_specs_from_obj(obj: Any) -> tuple[list[KClass] | None, list[ClassSpec]]:
    """
    Parse a classes file: an optional "generators" array of classes, and a
    "classes" array whose entries are either {"vector": ...} or
    {"word": "t2 t1^-1", "seed": k} with a 1-based generator index.
    Word entries are returned as (TwistWord, 0-based seed index), the spec
    form that induced_total_space resolves against the fibre.
    """
    from .moves import TwistWord

    if not isinstance(obj, dict):
        raise FileFormatError("classes: expected a JSON object")
    generators = None
    if "generators" in obj:
        if not isinstance(obj["generators"], list):
            raise FileFormatError("classes.generators: expected an array")
        generators = [
            kclass_from_obj(g, f"classes.generators[{i}]")
            for i, g in enumerate(obj["generators"])
        ]
    entries = obj.get("classes", [])
    if not isinstance(entries, list):
        raise FileFormatError("classes.classes: expected an array")
    specs: list[ClassSpec] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise FileFormatError(f"classes.classes[{i}]: expected an object")
        if "vector" in entry:
            specs.append(kclass_from_obj(entry["vector"], f"classes.classes[{i}].vector"))
        elif "word" in entry:
            if not isinstance(entry["word"], str):
                raise FileFormatError(f"classes.classes[{i}].word: expected a string")
            try:
                word = TwistWord.parse(entry["word"])
            except ValueError as exc:
                raise FileFormatError(f"classes.classes[{i}].word: {exc}") from exc
            seed = entry.get("seed")
            if type(seed) is not int or seed < 1:
                raise FileFormatError(
                    f"classes.classes[{i}].seed: expected a 1-based generator index"
                )
            specs.append((word, seed - 1))
        else:
            raise FileFormatError(
                f"classes.classes[{i}]: needs either 'vector' or 'word'"
            )
    return generators, specs


def classes_to_obj(
    generators: list[KClass] | None, classes: list[KClass]
) -> dict[str, Any]:
    obj: dict[str, Any] = {"classes": [{"vector": kclass_to_obj(c)} for c in classes]}
    if generators is not None:
        obj["generators"] = [kclass_to_obj(g) for g in generators]
    return obj


def dumps_canonical(obj: Any) -> str:
    r"""
    Deterministic rendering: sorted keys, two-space indent, ASCII escapes,
    newline end; the same bytes as json.dumps(obj, indent=2,
    sort_keys=True) + "\n" for values built from dicts with string keys,
    lists, strings, ints, bools and None.

    >>> print(dumps_canonical({"p": [[0, "1"], [2, "-3"]], "n": None, "é": []}), end="")
    {
      "n": null,
      "p": [
        [
          0,
          "1"
        ],
        [
          2,
          "-3"
        ]
      ],
      "\u00e9": []
    }
    """
    return _render(obj, "\n") + "\n"


class Rendered(str):
    """
    A value already rendered, dumps_canonical's text minus its final newline,
    to embed at any depth: _render breaks lines only as nl + indent and _quote
    escapes every newline in a string, so re-indenting the text is exact.
    """


def _render(obj: Any, nl: str) -> str:
    """One JSON value whose first line is already indented; nl ends a line."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is Rendered:
        return obj.replace("\n", nl)
    if kind is int:
        return _decimal(obj)
    if kind is list:
        if not obj:
            return "[]"
        inner = nl + "  "
        if len(obj) == 2 and type(obj[0]) is int and type(obj[1]) is str:
            # A polynomial term: the bulk of every file.
            return f"[{inner}{_decimal(obj[0])},{inner}{_quote(obj[1])}{nl}]"
        return f"[{inner}{(',' + inner).join([_render(x, inner) for x in obj])}{nl}]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        body = (',' + inner).join(
            [f"{_quote(k)}: {_render(v, inner)}" for k, v in sorted(obj.items())]
        )
        return f"{{{inner}{body}{nl}}}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
