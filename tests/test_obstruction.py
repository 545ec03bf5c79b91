"""Definite filling and surgery obstructions from labelled correction terms."""

import itertools
import math
from fractions import Fraction

import pytest
from helpers import lens_d, torus_knot_v

from latdefect import (
    STANDARD_PAIR,
    ConnectedSum,
    DInvariantReport,
    ExpressionTerm,
    FillingConclusion,
    QuarterPair,
    SeifertData,
    UnsupportedExpressionError,
    evaluate_expression,
    report_verdict,
    seifert_class_values,
    surgery_cobordism_obstruction,
    surgery_difference,
)

OBSTRUCTED = FillingConclusion.OBSTRUCTED
INCONCLUSIVE = FillingConclusion.INCONCLUSIVE


def pair_verdict(pair: QuarterPair):
    """report_verdict on a two-class report holding the labelled pair."""
    report = DInvariantReport(tuple(sorted((pair.d_quarter, pair.d_minus_quarter))))
    assert report.pair == pair
    return report_verdict(report)


def sphere_verdict(value):
    """report_verdict on a one-class report."""
    return report_verdict(DInvariantReport((Fraction(value),)))


def test_positive_filling_clause():
    # positive label sum
    verdict = pair_verdict(QuarterPair(Fraction(9, 4), Fraction(-1, 4)))
    assert verdict.positive_definite is OBSTRUCTED
    assert verdict.reason == (
        "positive: d_{1/4} + d_{-1/4} = 2 > 0; "
        "negative: d_{1/4} + d_{-1/4} = -2 permits a positive filling"
    )
    # zero sum away from the standard pair
    verdict = pair_verdict(QuarterPair(Fraction(-7, 4), Fraction(7, 4)))
    assert verdict.positive_definite is OBSTRUCTED
    assert "!= (1/4, -1/4)" in verdict.reason
    # the standard pair itself
    assert pair_verdict(STANDARD_PAIR).positive_definite is INCONCLUSIVE
    # negative sum
    verdict = pair_verdict(QuarterPair(Fraction(-31, 4), Fraction(-17, 4)))
    assert verdict.positive_definite is INCONCLUSIVE


def test_definite_verdict_blocks_both_orientations():
    verdict = pair_verdict(QuarterPair(Fraction(-7, 4), Fraction(7, 4)))
    assert verdict.positive_definite is OBSTRUCTED
    assert verdict.negative_definite is OBSTRUCTED
    assert "positive:" in verdict.reason and "negative:" in verdict.reason


def test_definite_verdict_on_standard_pair():
    verdict = pair_verdict(STANDARD_PAIR)
    assert verdict.positive_definite is INCONCLUSIVE
    # reversed standard pair is again (1/4, -1/4)
    assert verdict.negative_definite is INCONCLUSIVE
    assert verdict.reason == (
        "positive: d_{1/4} + d_{-1/4} = 0 permits a positive filling; "
        "negative: d_{1/4} + d_{-1/4} = 0 permits a positive filling"
    )


def test_definite_verdict_single_sided():
    verdict = pair_verdict(QuarterPair(Fraction(-31, 4), Fraction(-17, 4)))
    assert verdict.positive_definite is INCONCLUSIVE
    assert verdict.negative_definite is OBSTRUCTED


def test_sphere_clauses():
    verdict = sphere_verdict(2)
    assert verdict.positive_definite is OBSTRUCTED
    assert verdict.negative_definite is INCONCLUSIVE
    flat = sphere_verdict(0)
    assert flat.positive_definite is INCONCLUSIVE
    assert flat.negative_definite is INCONCLUSIVE
    assert flat.reason == (
        "positive: d = 0 permits a positive filling; negative: d = 0 permits a positive filling"
    )


def test_report_verdict_dispatch():
    sphere = evaluate_expression("P")
    verdict = report_verdict(sphere)
    assert verdict.positive_definite is OBSTRUCTED
    assert verdict.negative_definite is INCONCLUSIVE
    assert verdict.reason == "positive: d = 2 > 0; negative: d = -2 permits a positive filling"
    reversed_sphere = report_verdict(evaluate_expression("-P"))
    assert reversed_sphere.positive_definite is INCONCLUSIVE
    assert reversed_sphere.negative_definite is OBSTRUCTED
    assert reversed_sphere.reason == (
        "positive: d = -2 permits a positive filling; negative: d = 2 > 0"
    )

    eleven = evaluate_expression("Y(-2; -3/2, -5/3)")
    with pytest.raises(UnsupportedExpressionError):
        report_verdict(eleven)


def test_surgery_obstruction():
    main = QuarterPair(Fraction(-7, 4), Fraction(7, 4))
    assert surgery_difference(main) == Fraction(-7, 2)
    assert surgery_cobordism_obstruction(main) is True
    assert surgery_difference(STANDARD_PAIR) == Fraction(1, 2)
    assert surgery_cobordism_obstruction(STANDARD_PAIR) is False
    # no +-2/q surgery on a knot has a difference other than 1/2 or -3/2
    wide = QuarterPair(Fraction(9, 4), Fraction(-1, 4))
    assert surgery_difference(wide) == Fraction(5, 2)
    assert surgery_cobordism_obstruction(wide) is True
    assert surgery_cobordism_obstruction(QuarterPair(Fraction(-7, 4), Fraction(-1, 4))) is False


def test_two_surgeries_on_torus_knots_are_not_obstructed():
    # S^3_{2/q}(T(r, s)) is Y(-1; -r/r*, -s/s*, -(2 - qrs)/q) for
    # r* s + s* r = rs - 1; Ni-Wu gives its difference as 1/2 for q >= 3 and
    # 1/2 - 2 (V_0 - V_1) for q = 1
    lowered = set()
    for r, s in [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5)]:
        r_dual, s_dual = -pow(s, -1, r) % r, -pow(r, -1, s) % s
        v = torus_knot_v(r, s)
        for q in (1, 3, 5, 7):
            legs = (Fraction(-r, r_dual), Fraction(-s, s_dual), Fraction(2 - q * r * s, q))
            space = ConnectedSum((ExpressionTerm(1, SeifertData(-1, legs)),))
            pair = evaluate_expression(space).pair
            expected = Fraction(1, 2) - (2 * (v(0) - v(1)) if q == 1 else 0)
            assert surgery_difference(pair) == expected, (r, s, q)
            assert surgery_cobordism_obstruction(pair) is False, (r, s, q)
            if expected != Fraction(1, 2):
                lowered.add((r, s, q))
    assert lowered == {(2, 3, 1), (3, 5, 1), (2, 7, 1), (4, 5, 1)}


def test_surgeries_on_torus_knots_match_ni_wu_as_multisets():
    # S^3_{p/q}(T(r, s)) for 0 < p < qrs is Y(-1; -r/r*, -s/s*, -(qrs - p)/q),
    # and Ni-Wu give its class values as d(L(p, q), i) - 2 max(V_{floor(i/q)},
    # V_{floor((p + q - 1 - i)/q)}) with d(L(p, q), i) = -lens_d(p, q, i);
    # p = qrs - 1 is a lens space and is skipped
    checked = 0
    for r, s in [(2, 3), (2, 5), (3, 4)]:
        r_dual, s_dual = -pow(s, -1, r) % r, -pow(r, -1, s) % s
        v = torus_knot_v(r, s)
        for q in (1, 2, 3):
            for p in range(1, q * r * s - 1):
                if math.gcd(p, q) != 1:
                    continue
                legs = (Fraction(-r, r_dual), Fraction(-s, s_dual), Fraction(p - q * r * s, q))
                expected = sorted(
                    -lens_d(p, q, i) - 2 * max(v(i // q), v((p + q - 1 - i) // q))
                    for i in range(p)
                )
                assert sorted(seifert_class_values(SeifertData(-1, legs))) == expected, (r, s, p, q)
                checked += 1
    assert checked == 100


def test_main_example_verdicts(ybar_report):
    verdict = report_verdict(ybar_report)
    assert verdict.positive_definite is INCONCLUSIVE
    assert verdict.negative_definite is OBSTRUCTED
    assert verdict.reason == (
        "positive: d_{1/4} + d_{-1/4} = -12 permits a positive filling; "
        "negative: d_{1/4} + d_{-1/4} = 12 > 0"
    )
    # 3*P shifts both values by 6, and the sum then bounds neither way
    shifted = tuple(v + 6 for v in ybar_report.class_values)
    verdict = report_verdict(DInvariantReport(shifted))
    assert verdict.positive_definite is verdict.negative_definite is OBSTRUCTED
    assert verdict.reason == (
        "positive: d_{1/4} + d_{-1/4} = 0 with values (-7/4, 7/4) != (1/4, -1/4); "
        "negative: d_{1/4} + d_{-1/4} = 0 with values (-7/4, 7/4) != (1/4, -1/4)"
    )


def test_two_class_seifert_spaces_bound_their_own_plumbing():
    # the abstract's Seifert claim as a test: Y bounds its negative definite
    # plumbing when e(Y) < 0 and -Y does when e(Y) > 0, so that side is never
    # obstructed, and no such space is obstructed both ways
    legs = sorted({Fraction(s * a, b) for a in range(1, 6) for b in range(1, 6) for s in (1, -1)})
    checked = 0
    for central in range(-3, 4):
        for combo in itertools.combinations_with_replacement(legs, 3):
            euler = central - sum(1 / r for r in combo)
            if abs(euler * math.prod(r.numerator for r in combo)) != 2:
                continue
            space = ConnectedSum((ExpressionTerm(1, SeifertData(central, combo)),))
            verdict = report_verdict(evaluate_expression(space))
            own = verdict.negative_definite if euler < 0 else verdict.positive_definite
            assert own is INCONCLUSIVE, (central, combo)
            checked += 1
    assert checked == 990
