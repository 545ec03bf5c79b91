"""Serialization helpers: exact rationals and JSON matrix formats.

Rationals render as "p/q", or bare "n" when integral. Gram matrices travel
as {"rank": n, "gram": [[...], ...]} with integer entries, plumbing trees as
{"weights": [...], "edges": [[i, j], ...]}.

A Gram matrix read from JSON may have rank at most MAX_GRAM_RANK and entries
of absolute value at most MAX_GRAM_ENTRY: exact elimination costs grow with
both, so larger input is rejected as malformed before any arithmetic. A
plumbing tree is held to the same bounds, on its vertex count and weights.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import FormatError
from .lattice import MAX_GRAM_ENTRY, MAX_GRAM_RANK
from .plumbing import PlumbingTree


def format_fraction(value) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    parts = text.strip().split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError) as err:
        raise FormatError(f"invalid rational {text!r}: {err}") from None
    raise FormatError(f"invalid rational {text!r}: expected 'p' or 'p/q'")


def _require(condition: bool, message: str):
    if not condition:
        raise FormatError(message)


def gram_to_json(gram) -> str:
    rows = [[int(x) for x in row] for row in gram]
    return json.dumps({"rank": len(rows), "gram": rows})


def gram_from_json(text: str) -> list[list[int]]:
    """Decode a Gram matrix document; shape problems raise FormatError.

    Symmetry and definiteness are left to lattice validation, which points
    at the offending entry. Rank and entry size are bounded by MAX_GRAM_RANK
    and MAX_GRAM_ENTRY.
    """
    try:
        document = json.loads(text)
    except ValueError as err:  # JSONDecodeError, or an integer too long to parse
        raise FormatError(f"invalid JSON: {err}") from None
    _require(isinstance(document, dict), "expected an object with a 'gram' field")
    _require("gram" in document, "missing 'gram' field")
    rows = document["gram"]
    _require(
        isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows),
        "'gram' must be a nonempty list of rows",
    )
    _require(
        len(rows) <= MAX_GRAM_RANK,
        f"rank {len(rows)} exceeds the limit of {MAX_GRAM_RANK}",
    )
    for i, row in enumerate(rows):
        _require(len(row) == len(rows), f"row {i} has length {len(row)}, expected {len(rows)}")
        for j, entry in enumerate(row):
            _require(
                isinstance(entry, int) and not isinstance(entry, bool),
                f"entry at row {i}, column {j} is not an integer",
            )
            _require(
                abs(entry) <= MAX_GRAM_ENTRY,
                f"entry at row {i}, column {j} exceeds {MAX_GRAM_ENTRY} in absolute value",
            )
    if "rank" in document:
        _require(
            document["rank"] == len(rows),
            f"'rank' is {document['rank']} but 'gram' has {len(rows)} rows",
        )
    return [list(row) for row in rows]


def tree_to_json(tree: PlumbingTree) -> str:
    return json.dumps(
        {"weights": list(tree.weights), "edges": [list(e) for e in tree.edges]}
    )


def tree_from_json(text: str) -> PlumbingTree:
    """Decode a plumbing tree document; malformed input raises FormatError.

    At most MAX_GRAM_RANK vertices, with weights of absolute value at most
    MAX_GRAM_ENTRY.
    """
    try:
        document = json.loads(text)
    except ValueError as err:  # JSONDecodeError, or an integer too long to parse
        raise FormatError(f"invalid JSON: {err}") from None
    _require(isinstance(document, dict), "expected an object with 'weights' and 'edges'")
    _require("weights" in document and "edges" in document, "missing 'weights' or 'edges'")
    weights = document["weights"]
    edges = document["edges"]
    _require(
        isinstance(weights, list)
        and all(isinstance(w, int) and not isinstance(w, bool) for w in weights),
        "'weights' must be a list of integers",
    )
    _require(
        len(weights) <= MAX_GRAM_RANK,
        f"{len(weights)} vertices exceed the limit of {MAX_GRAM_RANK}",
    )
    for i, w in enumerate(weights):
        _require(
            abs(w) <= MAX_GRAM_ENTRY,
            f"weight of vertex {i} exceeds {MAX_GRAM_ENTRY} in absolute value",
        )
    _require(
        isinstance(edges, list)
        and all(
            isinstance(e, list) and len(e) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in e)
            for e in edges
        ),
        "'edges' must be a list of [i, j] integer pairs",
    )
    try:
        return PlumbingTree(tuple(weights), tuple((i, j) for i, j in edges))
    except ValueError as err:
        raise FormatError(str(err)) from None
