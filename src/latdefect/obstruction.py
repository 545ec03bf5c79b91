"""Definite filling obstructions from correction terms.

A space with two-element first homology that bounds a positive definite
4-manifold has reversed label sum at least 0, and equality forces the pair
(1/4, -1/4). Running the clause on both orientations decides whether any
definite filling can exist. An analogous sign test applies to homology
spheres.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .dinvariant import DInvariantReport, QuarterPair, reverse_pair
from .errors import UnsupportedExpressionError

STANDARD_PAIR = QuarterPair(Fraction(1, 4), Fraction(-1, 4))
# d_{1/4} - d_{-1/4} over every +-2/q surgery on a knot in S^3
SURGERY_DIFFERENCES = frozenset({Fraction(1, 2), Fraction(-3, 2)})


class FillingConclusion(enum.Enum):
    OBSTRUCTED = "Obstructed"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class Verdict:
    """Filling conclusions for both signs of definite 4-manifold."""

    positive_definite: FillingConclusion
    negative_definite: FillingConclusion
    reason: str


def positive_filling_obstruction(pair: QuarterPair) -> tuple[FillingConclusion, str]:
    """One verdict component: can the space bound positive definite?

    Obstructed iff the label sum is positive, or zero with a pair other than
    (1/4, -1/4).
    """
    total = pair.d_quarter + pair.d_minus_quarter
    if total > 0:
        return (
            FillingConclusion.OBSTRUCTED,
            f"d_{{1/4}} + d_{{-1/4}} = {total} > 0",
        )
    if total == 0 and pair != STANDARD_PAIR:
        return (
            FillingConclusion.OBSTRUCTED,
            f"d_{{1/4}} + d_{{-1/4}} = 0 with values ({pair.d_quarter}, "
            f"{pair.d_minus_quarter}) != (1/4, -1/4)",
        )
    return (
        FillingConclusion.INCONCLUSIVE,
        f"d_{{1/4}} + d_{{-1/4}} = {total} permits a positive filling",
    )


def _both_orientations(check, value, reverse) -> Verdict:
    """The verdict of a positive-side check run on a value and on its reverse."""
    positive, positive_reason = check(value)
    negative, negative_reason = check(reverse)
    return Verdict(
        positive_definite=positive,
        negative_definite=negative,
        reason=f"positive: {positive_reason}; negative: {negative_reason}",
    )


def definite_verdict(pair: QuarterPair) -> Verdict:
    """Run the filling obstruction on both orientations of a two-class space."""
    return _both_orientations(positive_filling_obstruction, pair, reverse_pair(pair))


def sphere_filling_obstruction(value: Fraction) -> tuple[FillingConclusion, str]:
    """One verdict component for a homology sphere: d > 0 blocks positive fillings."""
    if value > 0:
        return FillingConclusion.OBSTRUCTED, f"d = {value} > 0"
    return FillingConclusion.INCONCLUSIVE, f"d = {value} permits a positive filling"


def sphere_definite_verdict(value: Fraction) -> Verdict:
    """Both-orientation verdict for a homology sphere."""
    value = Fraction(value)
    return _both_orientations(sphere_filling_obstruction, value, -value)


def report_verdict(report: DInvariantReport) -> Verdict:
    """Verdict for an evaluated expression with one or two spin-c classes."""
    if report.h1 == 1:
        (value,) = report.class_values
        return sphere_definite_verdict(value)
    if report.pair is None:
        raise UnsupportedExpressionError(
            "filling verdict needs one class or a labelled pair of classes"
        )
    return definite_verdict(report.pair)


def surgery_cobordism_obstruction(pair: QuarterPair) -> bool:
    """Whether the labels rule out homology cobordism to +-2/q surgery on a
    knot in S^3: True iff d_{1/4} - d_{-1/4} is neither 1/2 nor -3/2.

    Ni and Wu (arXiv 1009.4720) give, for every knot K and p/q > 0,
    d(S^3_{p/q}(K), i) = d(L(p, q), i) - 2 max(V_{floor(i/q)},
    V_{floor((p + q - 1 - i)/q)}), where V_0 >= V_1 >= ... >= 0 and each
    V_j - V_{j+1} is 0 or 1. For p = 2 and odd q >= 3 both classes shift by
    -2 V_0, so the difference is that of the lens space, 1/2. For q = 1 the
    classes shift by -2 V_0 and -2 V_1, so it is 1/2 - 2 (V_0 - V_1), which
    is 1/2 or -3/2. Since S^3_{-p/q}(K) is S^3_{p/q} of the mirror of K with
    its orientation reversed, and reversal keeps the difference, these are
    the only differences of +-2/q surgeries on knots, and a homology
    cobordism keeps both labelled values.
    """
    return surgery_difference(pair) not in SURGERY_DIFFERENCES


def surgery_difference(pair: QuarterPair) -> Fraction:
    """The labelled difference consumed by the surgery obstruction."""
    return pair.d_quarter - pair.d_minus_quarter
