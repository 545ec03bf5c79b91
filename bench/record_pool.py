"""Record the space pool of the `seifert-many-classes` workload.

    python3 bench/record_pool.py

Enumerates 3-leg Seifert spaces Y(e; -a1/b1, -a2/b2, -a3/b3) with leg
numerators a <= 7 and groups them by (plumbing rank, number of spin-c
classes). The pool is the groups listed in GROUPS. A run of the workload
draws one space from each group, so the matrix sizes and the number of
classes, which set the cost, are the same for every seed while the spaces
differ.

The expected class values of every pool space are stored as an exact digest.
Each is computed twice: through `evaluate_expression`, and through a second
route that builds the coset problem of every spin-c class by hand and solves
it with `shortest_in_coset`, passing `reduce=False` so that the route runs
no LLL whatever the library's default, and without `max_char_square`. The
file is only written when the two routes agree on every class of every space.
This is an offline recorder, not a timed job, so it alone may pass a search
option; `bench/tests` allows it only this one.
"""

from __future__ import annotations

import collections
import itertools
import json
import sys
from fractions import Fraction
from math import gcd

from source import import_library
from workloads import MANY_CLASSES_POOL, class_digest

MAX_NUMERATOR = 7
# (rank, classes): every group has at least four spaces; together they span
# ranks 4 to 10 and 32 to 595 classes.
GROUPS = (
    (4, 264),
    (5, 99),
    (5, 595),
    (6, 35),
    (6, 161),
    (7, 49),
    (7, 98),
    (8, 32),
    (9, 72),
    (10, 49),
)


def candidates(lib) -> dict[tuple[int, int], list[str]]:
    """Expressions of all 3-leg spaces, keyed by (rank, classes)."""
    legs = [
        (a, b)
        for a in range(2, MAX_NUMERATOR + 1)
        for b in range(1, a)
        if gcd(a, b) == 1
    ]
    out = collections.defaultdict(list)
    for e in range(-1, -MAX_NUMERATOR - 1, -1):
        for combo in itertools.combinations_with_replacement(legs, 3):
            if e + sum(Fraction(b, a) for a, b in combo) >= 0:
                continue  # not negative definite
            expression = f"Y({e}; " + ", ".join(f"-{a}/{b}" for a, b in combo) + ")"
            (term,) = lib.parse_expression(expression).terms
            rank = lib.canonical_plumbing(term.atom).rank
            out[(rank, lib.h1_order(term.atom))].append(expression)
    return out


def second_route(lib, expression: str) -> tuple[Fraction, ...]:
    """Class values from hand-built coset problems, one per spin-c class.

    For a negative definite plumbing lattice with Gram G and a characteristic
    pairing vector p, the largest square in p + 2L is -4 min over x of
    (z/2 + x)^T (-G) (z/2 + x) with z = (-G)^{-1} p, and d = (square + n) / 4.
    """
    (term,) = lib.parse_expression(expression).terms
    lat = lib.gram(lib.canonical_plumbing(term.atom))
    positive = [[-x for x in row] for row in lat.gram]
    inverse = lib.dual_gram(lat)
    values = []
    for cls in lib.spinc_classes(lat):
        p = cls.representative.pairings
        target = [-sum(c * q for c, q in zip(row, p)) / 2 for row in inverse]
        result = lib.shortest_in_coset(lib.CosetProblem(positive, target), reduce=False)
        values.append(Fraction(-4 * result.min_norm + lat.rank, 4))
    return tuple(sorted(values))


def main() -> int:
    lib = import_library()
    pool = candidates(lib)
    groups = []
    for rank, classes in GROUPS:
        spaces = []
        for expression in sorted(pool[(rank, classes)]):
            values = tuple(lib.evaluate_expression(expression).class_values)
            if len(values) != classes or second_route(lib, expression) != values:
                print(f"routes disagree on {expression}", file=sys.stderr)
                return 1
            spaces.append(
                {
                    "expression": expression,
                    "min": str(values[0]),
                    "max": str(values[-1]),
                    "digest": class_digest(values),
                }
            )
        groups.append({"rank": rank, "classes": classes, "spaces": spaces})
        print(f"rank {rank}, {classes} classes: {len(spaces)} spaces", file=sys.stderr)
    payload = {
        "description": (
            "Spaces of the seifert-many-classes workload, grouped by plumbing "
            "rank and spin-c class count; a run draws one space per group. "
            "digest is the SHA-256 of the sorted class values, comma-joined; "
            "two routes agreed on every value."
        ),
        "groups": groups,
    }
    MANY_CLASSES_POOL.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
