"""Serialization helpers: exact rationals and JSON matrix formats.

Rationals render as "p/q", or bare "n" when integral. Gram matrices travel
as {"rank": n, "gram": [[...], ...]} with integer entries.

A Gram matrix read from JSON may have rank at most MAX_GRAM_RANK and entries
of absolute value at most MAX_GRAM_ENTRY: exact elimination costs grow with
both, so larger input is rejected as malformed before any arithmetic.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import FormatError
from .lattice import MAX_GRAM_ENTRY, MAX_GRAM_RANK
from .linalg import integer_entries, require_square


def format_fraction(value) -> str:
    return str(Fraction(value))


# ASCII only: int() also reads other scripts' digits and underscores
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_fraction(text: str) -> Fraction:
    """Read 'p' or 'p/q' with surrounding whitespace; else FormatError."""
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise FormatError(f"invalid rational {text!r}: expected 'p' or 'p/q'")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except ValueError as err:  # too many digits
        raise FormatError(f"invalid rational {text!r}: {err}") from None
    except ZeroDivisionError:
        raise FormatError(f"invalid rational {text!r}: zero denominator") from None


def _require(condition: bool, message: str):
    if not condition:
        raise FormatError(message)


def gram_to_json(gram) -> str:
    """The JSON document of a Gram matrix; entries follow integer_entries."""
    rows = [list(integer_entries(row)) for row in gram]
    return json.dumps({"rank": len(rows), "gram": rows})


def gram_from_json(text: str | bytes) -> list[list[int]]:
    """Decode a Gram matrix document, text or the bytes of a file; shape
    problems and bytes that are not UTF-8, -16 or -32 raise FormatError.

    Symmetry and definiteness are left to lattice validation, which points
    at the offending entry. Rank and entry size are bounded by MAX_GRAM_RANK
    and MAX_GRAM_ENTRY.
    """
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as err:  # also huge integers, deep nesting
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
    require_square(rows)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            _require(type(entry) is int, f"entry at row {i}, column {j} is not an integer")
            _require(
                abs(entry) <= MAX_GRAM_ENTRY,
                f"entry at row {i}, column {j} exceeds {MAX_GRAM_ENTRY} in absolute value",
            )
    if "rank" in document:
        rank = document["rank"]
        _require(type(rank) is int, f"'rank' is {json.dumps(rank)}, not an integer")
        _require(rank == len(rows), f"'rank' is {rank} but 'gram' has {len(rows)} rows")
    return [list(row) for row in rows]

