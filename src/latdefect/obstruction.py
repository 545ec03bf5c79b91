"""Definite filling obstructions from correction terms.

If a space bounds a positive definite 4-manifold, the sum of its labelled
correction terms is at most 0, and equality holds only at the values of the
diagonal lattice's boundary: (0) for S^3 and (1/4, -1/4) for RP^3. This is
Elkies' theorem (arXiv math/9906019) for one spin-c class and the bimodular
bound for two. Running the rule on the values and on those of the reversed
space decides whether any definite filling can exist.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .dinvariant import DInvariantReport, QuarterPair
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


def _positive_filling(values: tuple[Fraction, ...]) -> tuple[FillingConclusion, str]:
    """One verdict component: can a space with labelled values (d) or
    (d_{1/4}, d_{-1/4}) bound positive definite? Obstructed iff their sum is
    positive, or zero away from the diagonal boundary's values; one class
    summing to zero is the value 0 itself."""
    total = sum(values)
    name = "d" if len(values) == 1 else "d_{1/4} + d_{-1/4}"
    if total > 0:
        return FillingConclusion.OBSTRUCTED, f"{name} = {total} > 0"
    if total == 0 and len(values) == 2 and QuarterPair(*values) != STANDARD_PAIR:
        return (
            FillingConclusion.OBSTRUCTED,
            f"{name} = 0 with values ({values[0]}, {values[1]}) != (1/4, -1/4)",
        )
    return FillingConclusion.INCONCLUSIVE, f"{name} = {total} permits a positive filling"


def report_verdict(report: DInvariantReport) -> Verdict:
    """Verdict for an evaluated expression with one or two spin-c classes:
    the positive-side rule on its labelled values, and on the reversed
    space's, which are those values negated in reverse order."""
    if report.h1 == 1:
        values = report.class_values
    elif report.pair is not None:
        values = (report.pair.d_quarter, report.pair.d_minus_quarter)
    else:
        raise UnsupportedExpressionError(
            "filling verdict needs one class or a labelled pair of classes"
        )
    positive, positive_reason = _positive_filling(values)
    negative, negative_reason = _positive_filling(tuple(-v for v in reversed(values)))
    return Verdict(
        positive_definite=positive,
        negative_definite=negative,
        reason=f"positive: {positive_reason}; negative: {negative_reason}",
    )


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
