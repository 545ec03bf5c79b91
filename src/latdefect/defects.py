"""Minimal characteristic squares and the defect invariants they define.

For a positive definite lattice of rank n the defect is
(min characteristic square - n) / 4. For |det| = 2 the two characteristic
classes get their own minima and defects d_plus, d_minus, which satisfy
d_plus = 1/4 (mod 2) and d_minus = -1/4 (mod 2).

Reductions to coset enumeration:

  * per class (classes of Char mod 2L): in basis coordinates z with square
    z^T G z, the class of a representative chi is z_chi + 2 Z^n, so minimize
    with the integral form G, target z_chi / 2 = adj chi / (2 |det|)
    (_class_target), and scale by 4. A unimodular lattice has one class, of
    diag(G); a |det| = 2 lattice has its two spin-c classes, by sign
    (characteristic_class_reps);
  * all of Char, for min_char_norm(sign="any"): pairing vectors p run over
    diag(G) + 2 Z^n and the square is p^T G^{-1} p, so minimize with form
    G^{-1}, target diag(G)/2, and scale by 4.

defects and max_char_square need only values, and take them from one
route, _class_minima, which makes each integer class target once and builds
no CosetProblem and no Fraction before the value: when the Gram graph is a
forest (as for every plumbing tree) the exact tree dynamic program
(plan_minimum on the lattice's ForestPlan), with no dense adjugate;
otherwise one coset_minima call, the branch-and-bound search without
minimizers, which reduces and factors G once for every class target.
min_char_norm reports the minimizing pairing vectors through
shortest_in_coset. Every branch-and-bound search LLL-reduces
its form first; there is no switch, since reduction changes node counts only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .enumeration import (
    CosetProblem,
    EnumerationResult,
    check_node_budget,
    coset_minima,
    plan_minimum,
    shortest_in_coset,
)
from .errors import (
    CongruenceViolationError,
    NotCharacteristicError,
    NotNegativeDefiniteError,
    RadiusEmptyError,
    UnsupportedDeterminantError,
)
from .lattice import (
    CharClassSign,
    Covector,
    IntegralLattice,
    base_characteristic,
    char_class_sign,
    dual_gram,
    spinc_classes,
    _class_residue,
    _require_bimodular,
    _require_characteristic,
    _require_positive,
)
from .linalg import mat_vec, require_rational, sign_representatives


@dataclass(frozen=True)
class Defects:
    """Per-class defects; for |det| = 1 both fields carry the single value."""

    d_plus: Fraction
    d_minus: Fraction


def _any_problem(lat: IntegralLattice, radius=None) -> CosetProblem:
    """All characteristic covectors: pairings diag(G) + 2 Z^n with form G^{-1}.

    Halved to the target diag(G) / 2 + Z^n, so values and radius are a
    quarter of the squares.
    """
    target = [Fraction(d, 2) for d in lat.diagonal]
    inner_radius = None if radius is None else Fraction(radius) / 4
    return CosetProblem(dual_gram(lat), target, radius=inner_radius)


def _class_target(rep: Covector) -> tuple[list[int], int]:
    """(adj p, 2 |det|): big / den is the halved class target z / 2, for
    z = P^{-1} p = adj p / |det| on the positive form P, with adj p solved
    once per covector (Covector._adj). A factor common to big and den moves
    no value and no node count of either search, so none is removed.
    """
    return list(rep._adj), 2 * abs(rep.lattice.determinant)


def _class_problem(rep: Covector, radius=None) -> CosetProblem:
    """The class rep + 2L in basis coordinates of the positive form.

    The coset z + 2 Z^n of z = G^{-1} p is halved to z / 2 + Z^n
    (_class_target), so values and radius are a quarter of the squares.
    """
    big, den = _class_target(rep)
    target = [Fraction(x, den) for x in big]
    inner_radius = None if radius is None else Fraction(radius) / 4
    return CosetProblem(rep.lattice.positive_gram, target, radius=inner_radius)


def _class_minima(lat: IntegralLattice, reps, node_budget) -> list[tuple[Fraction, int]]:
    """(min, nodes) of each class rep + 2L, min a quarter of its least square:
    the tree dynamic program per class on a forest Gram graph, else one
    coset_minima search that prepares G once, both on the integer targets of
    _class_target. node_budget bounds each class."""
    targets = [_class_target(r) for r in reps]
    plan = lat.forest_plan
    if plan is not None:
        return [plan_minimum(plan, big, den, node_budget=node_budget) for big, den in targets]
    return coset_minima(lat.positive_gram, targets, node_budget=node_budget)


def _check_class_square(value: Fraction, rank: int, sign: CharClassSign | None) -> None:
    """The minimal square of a class has its residue mod 8 (_class_residue)."""
    expected = _class_residue(rank, sign)
    if value.denominator != 1 or int(value) % 8 != expected:
        raise CongruenceViolationError(
            f"class minimum {value} is not {expected} mod 8"
        )


def characteristic_class_reps(lat: IntegralLattice) -> dict[CharClassSign, Covector]:
    """Representatives of the two characteristic classes of a |det| = 2
    lattice: the reps of its two spin-c classes, labelled by char_class_sign."""
    _require_bimodular(lat)
    reps = {char_class_sign(c.representative): c.representative for c in spinc_classes(lat)}
    if len(reps) != 2:
        raise CongruenceViolationError(
            "characteristic classes do not split into opposite signs"
        )
    return reps


def min_char_norm(
    lat: IntegralLattice,
    sign: CharClassSign | str = "any",
    *,
    radius=None,
    node_budget: int | None = None,
) -> EnumerationResult:
    """Minimal characteristic square, restricted to one class when asked.

    The returned minimizers are the pairing vectors of the minimizing
    covectors, one representative per {xi, -xi} pair, sorted. Raises
    RadiusEmptyError, naming radius, when no square is at most radius, and
    FormatError when radius is not an int or Fraction.
    """
    _require_positive(lat, "min_char_norm")
    check_node_budget(node_budget)
    if radius is not None:
        require_rational(radius, "radius")
    if sign == "any":
        wanted, where, problem = None, "", _any_problem(lat, radius)
    else:
        wanted = CharClassSign(sign)
        rep = characteristic_class_reps(lat)[wanted]
        where, problem = f" in the {wanted.value} class", _class_problem(rep, radius)
    try:
        res = shortest_in_coset(problem, node_budget=node_budget)
    except RadiusEmptyError:  # the search's radius is a quarter of the squares'
        raise RadiusEmptyError(
            f"no characteristic covector{where} with square <= {radius}"
        ) from None
    value = 4 * res.min_norm
    if wanted is None:
        pairings = [tuple(d + 2 * x for d, x in zip(lat.diagonal, offs)) for offs in res.minimizers]
    else:
        _check_class_square(value, lat.rank, wanted)
        shifts = (mat_vec(lat.positive_gram, list(x)) for x in res.minimizers)
        pairings = [tuple(p + 2 * s for p, s in zip(rep.pairings, shift)) for shift in shifts]
    return EnumerationResult(
        min_norm=value,
        minimizers=tuple(sign_representatives(pairings)),
        nodes_visited=res.nodes_visited,
    )


def defects(
    lat: IntegralLattice,
    *,
    node_budget: int | None = None,
) -> Defects:
    """Defect invariant(s): (min characteristic square - rank) / 4.

    Unimodular lattices get a single defect reported in both fields;
    |det| = 2 lattices get one defect per characteristic class. The minima
    are those of min_char_norm, taken by _class_minima, each class with its
    own node_budget, and only the values are kept.
    """
    _require_positive(lat, "defects")
    check_node_budget(node_budget)
    det = abs(lat.determinant)
    n = lat.rank
    if det == 1:
        classes = {None: base_characteristic(lat)}
    elif det == 2:
        reps = characteristic_class_reps(lat)
        classes = {s: reps[s] for s in (CharClassSign.PLUS, CharClassSign.MINUS)}
    else:
        raise UnsupportedDeterminantError(f"defects need |det| in {{1, 2}}, got {det}")
    minima = _class_minima(lat, list(classes.values()), node_budget)
    found = []
    for sign, (value, _nodes) in zip(classes, minima):
        _check_class_square(4 * value, n, sign)
        found.append(Fraction(4 * value - n, 4))
    # the class residues mod 8 (_class_residue) make defects 0, 1/4 or -1/4 mod 2
    return Defects(d_plus=found[0], d_minus=found[-1])


def max_char_square(
    lat: IntegralLattice,
    class_rep: Covector,
    *,
    node_budget: int | None = None,
) -> Fraction:
    """Largest square over the class rep + 2L of a negative definite lattice.

    Equals minus the minimal square of the corresponding coset in the
    positive definite negation, taken by _class_minima: the tree dynamic
    program on a forest-shaped Gram matrix, the branch-and-bound search on
    any other. node_budget bounds its nodes.
    """
    if lat.sign >= 0:
        raise NotNegativeDefiniteError("max_char_square needs a negative definite lattice")
    check_node_budget(node_budget)
    if class_rep.lattice != lat:
        raise NotCharacteristicError("class representative belongs to a different lattice")
    _require_characteristic(class_rep)
    [(value, _nodes)] = _class_minima(lat, [class_rep], node_budget)
    return -4 * value
