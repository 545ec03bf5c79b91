"""The benchmark's workloads: a seeded list of jobs, each with its own check.

A job is one public library call and a check of what it returned. Building
the job list is part of set-up: it draws the inputs from the seed and parses
every expression, so the jobs get `ConnectedSum` objects. Lattices are built
inside the jobs instead, because a lattice caches its inverse Gram matrix and
one reused across passes would skip that work after the first pass.

Jobs look library functions up on the package module when they run, never
when they are built, so wrappers the tracer installs later are the ones
called. Only public names are used, with default search options: later
changes to those defaults are what the benchmark exists to measure.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

MANY_CLASSES_POOL = Path(__file__).resolve().parent / "data" / "many_classes.json"
MAIN_EXPRESSION = "3*P + Y(2; 15/13, 17/3, 23/22)"
SUITES = ("elkies", "bimodular", "congruence", "glue", "roundtrip")
SUITE_TRIALS = 100

QUARTER_PAIR = (Fraction(1, 4), Fraction(-1, 4))


@dataclass(frozen=True)
class Job:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def class_digest(values) -> str:
    """SHA-256 of sorted exact class values, comma-joined."""
    text = ",".join(str(Fraction(v)) for v in sorted(values))
    return hashlib.sha256(text.encode()).hexdigest()


def seifert_main(lib, seed: int) -> list[Job]:
    """The rank-32 two-class example, then its verdict and surgery difference.

    The seed does not change the input; expected values are the README's.
    """
    state = {}
    expression = lib.parse_expression(MAIN_EXPRESSION)

    def evaluate():
        state["report"] = lib.evaluate_expression(expression)
        return state["report"]

    pair = (Fraction(-7, 4), Fraction(7, 4))
    return [
        Job(
            "evaluate_expression",
            evaluate,
            lambda r: (r.pair.d_quarter, r.pair.d_minus_quarter) == pair
            and tuple(r.class_values) == pair,
        ),
        Job(
            "report_verdict",
            lambda: lib.report_verdict(state["report"]),
            lambda v: v.positive_definite.value == "Obstructed"
            and v.negative_definite.value == "Obstructed",
        ),
        Job(
            "surgery_difference",
            lambda: lib.surgery_difference(state["report"].pair),
            lambda d: d == Fraction(-7, 2),
        ),
    ]


def seifert_many_classes(lib, seed: int, groups=None) -> list[Job]:
    """One recorded space per (rank, class count) group, drawn by the seed.

    Every space a seed can draw is in the pool file with the digest of its
    class values, so each output is checked exactly for any seed.
    """
    if groups is None:
        groups = json.loads(MANY_CLASSES_POOL.read_text())["groups"]
    rng = random.Random(seed)
    jobs = []
    for group in groups:
        space = rng.choice(group["spaces"])
        expression = lib.parse_expression(space["expression"])
        jobs.append(
            Job(
                space["expression"],
                lambda e=expression: lib.evaluate_expression(e),
                lambda r, n=group["classes"], d=space["digest"]: len(r.class_values) == n
                and class_digest(r.class_values) == d,
            )
        )
    return jobs


def lattice_suites(lib, seed: int) -> list[Job]:
    """The five property suites at the workload seed, then 20 defect goldens."""
    jobs = []
    for name in SUITES:
        rank_bound = 9 if name == "bimodular" else 8
        jobs.append(
            Job(
                f"verify_suite {name}",
                lambda n=name, b=rank_bound: lib.verify_suite(
                    n, rank_bound=b, trials=SUITE_TRIALS, seed=seed
                ),
                lambda r, n=name: r.name == n
                and r.trials == SUITE_TRIALS
                and r.checks >= SUITE_TRIALS,
            )
        )
    goldens = [("a1", lambda: lib.a1_lattice(), QUARTER_PAIR)]
    goldens += [
        (f"diagonal_bimodular {n}", lambda n=n: lib.diagonal_bimodular_lattice(n), QUARTER_PAIR)
        for n in range(1, 9)
    ]
    goldens += [
        (f"identity {m}", lambda m=m: lib.identity_lattice(m), (0, 0))
        for m in range(1, 11)
    ]
    goldens.append(("e8", lambda: lib.e8_lattice(), (-2, -2)))
    for label, build, expected in goldens:
        jobs.append(
            Job(
                f"defects {label}",
                lambda b=build: lib.defects(b()),
                lambda d, x=expected: (d.d_plus, d.d_minus) == x,
            )
        )
    return jobs


WORKLOADS = {
    "seifert-main": seifert_main,
    "seifert-many-classes": seifert_many_classes,
    "lattice-suites": lattice_suites,
}
