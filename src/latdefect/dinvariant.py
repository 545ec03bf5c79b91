"""Correction terms of plumbed 3-manifolds.

For a negative definite plumbing tree with at most one bad vertex, the
correction term of each spin-c structure is (max K^2 + s) / 4, maximizing the
square over characteristic covectors in the class and counting vertices with
s. Spaces with two-element first homology get their two values labelled by
residue mod 2, and connected sums with homology spheres shift both labels.

Conjugation gives d(Y, s) = d(Y, conj s) (Ozsvath-Szabo, arXiv
math/0110170); on the lattice, K -> -K maps the class K + 2L onto -K + 2L and
keeps every square, so both classes have the same maximum.
seifert_class_values names the class of a rep p by adj p mod 2 |det|, which
lattice.spinc_classes gives every rep from |free| + 1 solves per space and
the class target reuses (a class adds 2 |det| y to adj p). It checks the bad
vertices once per space and runs one tree dynamic program per conjugate pair:
(h + t) / 2 of them for h classes, t of them self-conjugate
(adj p = 0 mod |det|). The values are exact and the same, class by class,
as one d_invariant per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .defects import max_char_square
from .enumeration import check_node_budget
from .errors import (
    LabellingViolationError,
    ResidueViolationError,
    TooManyBadVerticesError,
    UnsupportedExpressionError,
)
from .lattice import SpinCClass, spinc_classes
from .linalg import require_rational
from .plumbing import (
    ConnectedSum,
    PlumbingTree,
    PoincareAtom,
    SeifertData,
    bad_vertex_indices,
    canonical_plumbing,
    h1_order,
    parse_expression,
    reverse_orientation,
)

POINCARE_SPHERE_D = Fraction(2)


def _require_one_bad_vertex(tree: PlumbingTree) -> None:
    bad = bad_vertex_indices(tree)
    if len(bad) > 1:
        raise TooManyBadVerticesError(
            f"tree has bad vertices {bad}, the formula allows at most one"
        )


def _correction_term(square: Fraction, rank: int, sign: int = 1) -> Fraction:
    """sign (square + rank) / 4, in ints and then one Fraction."""
    return Fraction(sign * (square.numerator + rank * square.denominator), 4 * square.denominator)


def d_invariant(
    tree: PlumbingTree, cls: SpinCClass, *, node_budget: int | None = None
) -> Fraction:
    """Correction term of one spin-c structure on the plumbing boundary.

    The plumbing lattice is a tree, so max_char_square takes the exact tree
    dynamic program; node_budget bounds its nodes. A class of another
    lattice raises NotCharacteristicError.
    """
    _require_one_bad_vertex(tree)
    square = max_char_square(tree.lattice, cls.representative, node_budget=node_budget)
    return _correction_term(square, tree.rank)


@dataclass(frozen=True)
class QuarterPair:
    """The two correction terms of a space with two-element first homology,
    labelled by their residues 1/4 and -1/4 mod 2."""

    d_quarter: Fraction
    d_minus_quarter: Fraction


def label_quarter(values) -> QuarterPair:
    """Split two correction terms by residue mod 2; a term that is not an
    int or Fraction raises FormatError."""
    quarter = []
    minus = []
    for v in values:
        v = Fraction(require_rational(v, "correction term"))
        if (v - Fraction(1, 4)) % 2 == 0:
            quarter.append(v)
        elif (v + Fraction(1, 4)) % 2 == 0:
            minus.append(v)
        else:
            raise LabellingViolationError(
                f"value {v} is not congruent to 1/4 or -1/4 mod 2"
            )
    if len(quarter) != 1 or len(minus) != 1:
        raise LabellingViolationError(
            f"residues do not split the pair: {quarter} vs {minus}"
        )
    return QuarterPair(quarter[0], minus[0])


def _sphere_term(value) -> Fraction:
    """The correction term of an integral homology sphere, as a Fraction;
    ResidueViolationError unless it is an even integer."""
    value = Fraction(value)
    if value.denominator != 1 or value % 2 != 0:
        raise ResidueViolationError(
            f"homology sphere correction term {value} is not an even integer"
        )
    return value


def _seifert_tree(data: SeifertData) -> tuple[PlumbingTree, bool]:
    """Canonical plumbing of the space, or of its reverse when e(Y) > 0
    (the side with a negative definite plumbing); flags the flip."""
    flipped = data.euler_number > 0
    return canonical_plumbing(reverse_orientation(data) if flipped else data), flipped


def seifert_class_values(
    data: SeifertData, *, node_budget: int | None = None
) -> tuple[Fraction, ...]:
    """Correction terms of a Seifert space, one per spin-c structure in
    spinc_classes order, read on the orientation with e(Y) < 0, whose
    canonical plumbing is negative definite, and negated when that is the
    reverse.

    The class of a rep p is named by adj p mod 2 |det| (Covector._adj, reused
    by the program's target), and the conjugate class of -p by -adj p.
    Conjugate classes have the same maximal square, so one max_char_square
    serves both: a class whose key is already known runs no tree dynamic
    program. node_budget bounds each dynamic program that runs.
    """
    tree, flipped = _seifert_tree(data)
    _require_one_bad_vertex(tree)
    lat = tree.lattice
    modulus = 2 * abs(lat.determinant)
    sign = -1 if flipped else 1
    known: dict[tuple[int, ...], Fraction] = {}
    values = []
    for cls in spinc_classes(lat):
        rep = cls.representative
        key = tuple(x % modulus for x in rep._adj)
        if key not in known:
            square = max_char_square(lat, rep, node_budget=node_budget)
            known[key] = known[tuple(-x % modulus for x in rep._adj)] = _correction_term(
                square, tree.rank, sign
            )
        values.append(known[key])
    return tuple(values)


@dataclass(frozen=True)
class DInvariantReport:
    """Correction terms of a connected sum expression: one class value per
    spin-c structure, and the labelled pair derived from those values
    (label_quarter) when there are two, None otherwise."""

    class_values: tuple[Fraction, ...]
    pair: QuarterPair | None = field(init=False)

    def __post_init__(self):
        values = self.class_values
        object.__setattr__(self, "pair", label_quarter(values) if len(values) == 2 else None)

    @property
    def h1(self) -> int:
        """Order of the first homology: the number of spin-c structures."""
        return len(self.class_values)


def evaluate_expression(
    expression: ConnectedSum | str, *, node_budget: int | None = None
) -> DInvariantReport:
    """Correction terms of a connected sum of Seifert spaces.

    At most one summand may have nontrivial first homology; homology sphere
    summands shift every class value, a summand of multiplicity k by k times
    its correction term. Two-class results carry the labelled pair of the
    shifted values; the shift is an even integer, so it keeps each label.
    node_budget bounds each tree dynamic program that runs; a class that
    takes its conjugate's value (seifert_class_values) runs none.
    """
    check_node_budget(node_budget)
    if isinstance(expression, str):
        expression = parse_expression(expression)
    shift = Fraction(0)
    special: SeifertData | None = None
    for term in expression.terms:
        atom = term.atom
        if isinstance(atom, PoincareAtom):
            shift += term.count * atom.orientation * POINCARE_SPHERE_D
            continue
        if h1_order(atom) == 1:
            (value,) = seifert_class_values(atom, node_budget=node_budget)
            shift += term.count * _sphere_term(value)
            continue
        if special is not None or term.count > 1:
            raise UnsupportedExpressionError(
                "at most one summand may have nontrivial first homology"
            )
        special = atom
    if special is None:
        return DInvariantReport((shift,))
    values = seifert_class_values(special, node_budget=node_budget)
    if shift:
        values = tuple(v + shift for v in values)
    # sorted by numerator over the common denominator, with no Fraction
    # comparison
    common = lcm(*(v.denominator for v in values))
    return DInvariantReport(
        tuple(sorted(values, key=lambda v: v.numerator * (common // v.denominator)))
    )
