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

import marshal
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Any

from .laurent import DIGITS_BOUND, MAX_SPAN, LaurentPoly, _decimal, _integer
from .lefschetz import LefschetzAlgebra
from .matrix import KClass, LaurentMatrix

if TYPE_CHECKING:
    from .catalog import ClassSpec


class FileFormatError(ValueError):
    """Malformed interchange data; the message names the offending field."""


def poly_to_obj(p: LaurentPoly) -> list[list[Any]]:
    return p.to_pairs()


def _parse_cells(cells: list[Any], where: str, seen: dict[bytes, LaurentPoly]) -> list[LaurentPoly]:
    """
    The polynomials in cells; a bad one is a FileFormatError naming
    where[index]. Each distinct cell is parsed once: seen maps a parsed
    cell's marshal bytes to its polynomial. The key must be type-exact,
    since JSON false and 0.0 equal 0 in Python but are refused as
    exponents; format 2 writes every value by its type and value alone.
    """
    polys: list[LaurentPoly] = []
    for i, cell in enumerate(cells):
        try:
            if not isinstance(cell, list):
                raise ValueError("expected an array of [exponent, coefficient]")
            key = marshal.dumps(cell, 2)
            p = seen.get(key)
            if p is None:
                p = seen[key] = LaurentPoly.from_pairs(cell)
            polys.append(p)
        except (ValueError, TypeError) as exc:
            raise FileFormatError(f"{where}[{i}]: {exc}") from exc
    return polys


def matrix_to_obj(m: LaurentMatrix) -> dict[str, Any]:
    """The wire form; equal entries share one list of pairs, rendered once."""
    matrix, firsts = _matrix_obj(m)
    for _, p, cell in firsts:
        cell += poly_to_obj(p)
    return matrix


def _matrix_obj(m: LaurentMatrix) -> tuple[dict[str, Any], list[tuple[int, LaurentPoly, list]]]:
    """matrix_to_obj(m) with empty cells, and (row-major index, entry, cell) per distinct entry."""
    cells: dict[tuple[int, tuple[int, ...]], list[list[Any]]] = {}
    firsts: list[tuple[int, LaurentPoly, list]] = []
    flat = []
    for p in m.entries:
        key = (p._val, p._coeffs)  # hashed in C, unlike LaurentPoly.__hash__
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = []
            firsts.append((len(flat), p, cell))
        flat.append(cell)
    n = m.cols
    return {
        "rows": m.rows,
        "cols": n,
        "entries": [flat[i * n : (i + 1) * n] for i in range(m.rows)],
    }, firsts


def matrix_from_obj(obj: Any, where: str = "matrix") -> LaurentMatrix:
    if not isinstance(obj, dict):
        raise FileFormatError(f"{where}: expected an object with rows/cols/entries")
    for field in ("rows", "cols", "entries"):
        if field not in obj:
            raise FileFormatError(f"{where}.{field}: missing")
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    for field, size in (("rows", rows), ("cols", cols)):
        # _integer, here and below: JSON true must not pass as 1.
        if not _integer(size) or size < 0:
            raise FileFormatError(f"{where}.{field}: expected a nonnegative integer")
    if not isinstance(entries, list) or len(entries) != rows:
        raise FileFormatError(f"{where}.entries: expected {rows} rows")
    flat: list[LaurentPoly] = []
    seen: dict[bytes, LaurentPoly] = {}
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise FileFormatError(f"{where}.entries[{i}]: expected {cols} columns")
        flat += _parse_cells(row, f"{where}.entries[{i}]", seen)
    return LaurentMatrix(rows, cols, tuple(flat))


def kclass_to_obj(k: KClass) -> list[list[Any]]:
    return [poly_to_obj(c) for c in k.coords]


def kclass_from_obj(obj: Any, where: str, size: int) -> KClass:
    """A class from a file: each cell parsed, then its length held to the fibre's size."""
    if not isinstance(obj, list):
        raise FileFormatError(f"{where}: expected an array of polynomials")
    coords = _parse_cells(obj, where, {})
    if len(coords) != size:
        raise FileFormatError(f"{where}: length {len(coords)}, not the fibre's {size}")
    return KClass(coords)


def fibration_to_obj(
    alg: LefschetzAlgebra, labels: list[str] | None = None
) -> dict[str, Any]:
    """
    Canonical file form (always B). A cell that LaurentPoly.from_pairs
    would refuse on reading it back is a ValueError with from_pairs's own
    message, naming the first such cell in row-major order before rendering any.
    """
    b, bound = alg.intersection, MAX_SPAN // 2
    matrix, firsts = _matrix_obj(b)
    # A necessary condition for a refusal (p's exponents run from p._val to
    # p._val + len(p._coeffs) - 1); only then is each distinct entry asked.
    wide = any(p._val < -bound or p._val + len(p._coeffs) > bound + 1 for _, p, _ in firsts)
    top = max(map(abs, chain.from_iterable([p._coeffs for _, p, _ in firsts])), default=0)
    if wide or top >= DIGITS_BOUND:
        for k, p, _ in firsts:
            try:
                LaurentPoly.from_pairs(p.items())
            except ValueError as exc:
                i, j = divmod(k, b.cols)
                raise ValueError(f"fibration.B.entries[{i}][{j}]: {exc}") from None
    for _, p, cell in firsts:
        cell += poly_to_obj(p)
    obj: dict[str, Any] = {"n": alg.dim, "m": alg.size, "B": matrix}
    if labels is not None:
        obj["labels"] = list(labels)
    return obj


def fibration_from_obj(obj: Any) -> tuple[LefschetzAlgebra, list[str] | None]:
    """
    Parse and validate a fibration file object. Either matrix key is
    accepted; the algebra's n is the file's "n". Validation of the
    intersection relation runs on load and surfaces as ConsistencyError.
    """
    if not isinstance(obj, dict):
        raise FileFormatError("fibration: expected a JSON object")
    if not _integer(obj.get("n")):
        raise FileFormatError("fibration.n: missing or not an integer")
    if not _integer(obj.get("m")) or obj["m"] < 0:
        raise FileFormatError("fibration.m: missing or not a nonnegative integer")
    has_a, has_b = "A" in obj, "B" in obj
    if has_a == has_b:
        raise FileFormatError("fibration: exactly one of 'A' and 'B' must be present")
    n, m = obj["n"], obj["m"]
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


def class_specs_from_obj(
    obj: Any, size: int
) -> tuple[list[KClass] | None, list[ClassSpec] | None]:
    """
    Parse a classes file for a fibre of `size` objects: a "generators" array
    of classes and a "classes" array of {"vector": ...} or
    {"word": "t2 t1^-1", "seed": k} entries, k a 1-based generator index;
    either key may be absent, and is then returned as None. Word entries are
    returned as (TwistWord, 0-based seed index), the spec form that
    induced_total_space resolves against the fibre. A seed or letter picks one
    of the generators: the file's, else the fibre's `size` thimbles.
    """
    from .moves import TwistWord, _checked

    if not isinstance(obj, dict):
        raise FileFormatError("classes: expected a JSON object")
    generators = None
    if "generators" in obj:
        if not isinstance(obj["generators"], list):
            raise FileFormatError("classes.generators: expected an array")
        generators = [
            kclass_from_obj(g, f"classes.generators[{i}]", size)
            for i, g in enumerate(obj["generators"])
        ]
    if "classes" not in obj:
        return generators, None
    count = size if generators is None else len(generators)
    entries = obj["classes"]
    if not isinstance(entries, list):
        raise FileFormatError("classes.classes: expected an array")
    specs: list[ClassSpec] = []
    for i, entry in enumerate(entries):
        where = f"classes.classes[{i}]"
        if not isinstance(entry, dict):
            raise FileFormatError(f"{where}: expected an object")
        if "vector" in entry:
            specs.append(kclass_from_obj(entry["vector"], f"{where}.vector", size))
        elif "word" in entry:
            if not isinstance(entry["word"], str):
                raise FileFormatError(f"{where}.word: expected a string")
            try:
                word = TwistWord.parse(entry["word"])
                for gen, _ in word.letters:
                    _checked("twist generator", gen, count)
            except (ValueError, IndexError) as exc:
                raise FileFormatError(f"{where}.word: {exc}") from exc
            seed = entry.get("seed")
            if not _integer(seed):
                raise FileFormatError(f"{where}.seed: expected a 1-based generator index")
            try:
                _checked("seed", seed - 1, count)
            except IndexError as exc:
                raise FileFormatError(f"{where}.seed: {exc}") from exc
            specs.append((word, seed - 1))
        else:
            raise FileFormatError(f"{where}: needs either 'vector' or 'word'")
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
    return _render(obj, "\n", {}) + "\n"


class Rendered(str):
    """
    A value already rendered, dumps_canonical's text minus its final newline,
    to embed at any depth: _render breaks lines only as nl + indent and _quote
    escapes every newline in a string, so re-indenting the text is exact.
    """


def _render(obj: Any, nl: str, memo: dict[tuple[int, int], str]) -> str:
    """
    One JSON value whose first line is already indented; nl ends a line.
    memo holds the text of each list rendered so far in this call, by its
    id and depth, so a list that obj holds in many places, such as a
    matrix entry shared by equal cells, is rendered once per depth.
    """
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
        key = (id(obj), len(nl))
        text = memo.get(key)
        if text is None:
            items = (',' + inner).join([_render(x, inner, memo) for x in obj])
            text = memo[key] = f"[{inner}{items}{nl}]"
        return text
    if kind is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        body = (',' + inner).join(
            [f"{_quote(k)}: {_render(v, inner, memo)}" for k, v in sorted(obj.items())]
        )
        return f"{{{inner}{body}{nl}}}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
