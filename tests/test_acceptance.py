"""End-to-end acceptance checks, one printed verdict line per criterion."""

import random
import time
from fractions import Fraction

from latdefect import (
    CosetProblem,
    a1_lattice,
    d_invariant,
    defects,
    diagonal_bimodular_lattice,
    e8_lattice,
    gram,
    identity_lattice,
    negative_e8_tree,
    shortest_in_coset,
    spinc_classes,
    verify_suite,
)
from latdefect.cli import main

from helpers import box_minimum, random_spd_gram, random_target

MAIN_EXPRESSION = "Y(2; 15/13, 17/3, 23/22)"
SUM_EXPRESSION = "3*P + Y(2; 15/13, 17/3, 23/22)"


def _report(number: int, ok: bool, description: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance {number}: {description}"


def _run(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    return code, capsys.readouterr().out.splitlines(), elapsed


def test_acceptance_1_labelled_pair_of_the_main_example(capsys):
    code, lines, elapsed = _run(capsys, ["seifert", "d", MAIN_EXPRESSION])
    ok = (
        code == 0
        and "d_{1/4} = -31/4" in lines
        and "d_{-1/4} = -17/4" in lines
        and elapsed < 120
    )
    _report(
        1,
        ok,
        f"labelled pair (-31/4, -17/4) of the two-class space in {elapsed:.1f}s",
    )


def test_acceptance_2_poincare_sphere_both_routes(capsys):
    code, lines, cli_time = _run(capsys, ["seifert", "d", "P"])
    tree = negative_e8_tree()
    start = time.perf_counter()
    (cls,) = spinc_classes(gram(tree))
    tree_value = d_invariant(tree, cls)
    tree_time = time.perf_counter() - start
    ok = (
        code == 0
        and lines == ["d = 2"]
        and cli_time < 1
        and tree_value == 2
        and tree_time < 1
    )
    _report(
        2,
        ok,
        f"d = 2 from the expression ({cli_time:.2f}s) and from the plumbing "
        f"({tree_time:.2f}s)",
    )


def test_acceptance_3_connected_sum_shifts_the_pair(capsys):
    code, lines, _ = _run(capsys, ["seifert", "d", SUM_EXPRESSION])
    ok = code == 0 and "d_{1/4} = -7/4" in lines and "d_{-1/4} = 7/4" in lines
    _report(3, ok, "summing three copies of d = 2 relabels the pair to (-7/4, 7/4)")


def test_acceptance_4_filling_and_surgery_obstructions(capsys):
    code, lines, _ = _run(capsys, ["obstruct", SUM_EXPRESSION])
    obstructed = (
        code == 0
        and "positive definite filling: Obstructed" in lines
        and "negative definite filling: Obstructed" in lines
    )
    code, lines, _ = _run(capsys, ["surgery", SUM_EXPRESSION])
    surgery_ok = (
        code == 0 and "difference = -7/2" in lines and "verdict = true" in lines
    )
    _report(
        4,
        obstructed and surgery_ok,
        "no definite filling either way and the surgery difference -7/2 obstructs",
    )


def test_acceptance_5_defect_goldens():
    quarter_pair = (Fraction(1, 4), Fraction(-1, 4))
    timings = []

    def timed(lat):
        start = time.perf_counter()
        pair = defects(lat)
        timings.append(time.perf_counter() - start)
        return pair.d_plus, pair.d_minus

    ok = timed(a1_lattice()) == quarter_pair
    for n in range(1, 9):
        ok = ok and timed(diagonal_bimodular_lattice(n)) == quarter_pair
    for m in range(1, 11):
        ok = ok and timed(identity_lattice(m)) == (0, 0)
    ok = ok and timed(e8_lattice()) == (-2, -2)
    ok = ok and max(timings) < 1
    _report(
        5,
        ok,
        f"defect goldens across 20 lattices, slowest call {max(timings):.3f}s",
    )


def test_acceptance_6_property_suites():
    reports = []
    for name in ("elkies", "bimodular", "congruence", "glue", "roundtrip"):
        bound = 9 if name == "bimodular" else 8
        reports.append(verify_suite(name, rank_bound=bound, trials=100, seed=0))
    ok = all(r.trials == 100 and r.checks >= 100 for r in reports)
    total_checks = sum(r.checks for r in reports)
    _report(6, ok, f"five randomized suites, {total_checks} checks, zero violations")


def test_acceptance_7_enumeration_against_exhaustive_search():
    rng = random.Random(0)
    mismatches = 0
    for _ in range(200):
        form = random_spd_gram(rng, max_rank=4, max_entry=6)
        target = random_target(rng, len(form))
        expect_min, expect_args = box_minimum(form, target)
        result = shortest_in_coset(CosetProblem(form, target))
        if result.min_norm != expect_min or list(result.minimizers) != expect_args:
            mismatches += 1
    _report(
        7,
        mismatches == 0,
        f"200 random coset minima match exhaustive search, {mismatches} mismatches",
    )
