"""Minimal characteristic squares and the defect invariants they define.

For a positive definite lattice of rank n the defect is
(min characteristic square - n) / 4. For |det| = 2 the two characteristic
classes get their own minima and defects d_plus, d_minus, which satisfy
d_plus = 1/4 (mod 2) and d_minus = -1/4 (mod 2).

Reductions to coset enumeration:

  * unrestricted minimum: pairing vectors p run over diag(G) + 2 Z^n and the
    square is p^T G^{-1} p, so minimize with form G^{-1}, target diag(G)/2,
    and scale by 4;
  * per-class minimum (classes of Char mod 2L): in basis coordinates z with
    square z^T G z, the class of a representative chi is z_chi + 2 Z^n, so
    minimize with form G, target z_chi / 2, and scale by 4.

defects and max_char_square need only values: they run the branch-and-bound
search through coset_minima, which builds no minimizers. On a |det| = 2
lattice both classes search the same positive Gram matrix, so defects hands
both class targets to one coset_minima call, which reduces and factors it
once. When the Gram graph is a forest (as for every plumbing tree),
max_char_square takes the exact tree dynamic program instead: the lattice
builds its ForestPlan once, and each class hands plan_minimum its integer
target adj p / (2 |det|), with adj p from the plan's O(n) solve on the tree,
so no CosetProblem, no dense adjugate and no Fraction is built before the
value.
min_char_norm reports the minimizing pairing vectors through
shortest_in_coset. Every one of these searches LLL-reduces its form first,
as enumeration does for each minimum search; there is no switch, since
reduction changes node counts only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .enumeration import (
    CosetProblem,
    EnumerationResult,
    coset_minima,
    plan_minimum,
    plan_solve,
    shortest_in_coset,
)
from .errors import (
    CongruenceViolationError,
    NotBimodularError,
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
    discriminant_group,
    is_characteristic,
    _require_positive,
)
from .linalg import mat_vec, sign_normalize


@dataclass(frozen=True)
class Defects:
    """Per-class defects; for |det| = 1 both fields carry the single value."""

    d_plus: Fraction
    d_minus: Fraction


def _collapse_pairings(pairings) -> tuple[tuple[int, ...], ...]:
    seen = set()
    for p in pairings:
        seen.add(sign_normalize(p))
    return tuple(sorted(seen))


def _any_problem(lat: IntegralLattice, radius=None) -> CosetProblem:
    """All characteristic covectors: pairings diag(G) + 2 Z^n with form G^{-1}.

    Halved to the target diag(G) / 2 + Z^n, so values and radius are a
    quarter of the squares.
    """
    target = [Fraction(d, 2) for d in lat.diagonal]
    inner_radius = None if radius is None else Fraction(radius) / 4
    return CosetProblem(lat.gram_inverse, target, radius=inner_radius)


def _halved(big, det: int) -> tuple[list[int], int]:
    """big / (2 det) in lowest terms, as (numerators, denominator); det > 0."""
    den = 2 * det
    g = gcd(den, *big)
    return [x // g for x in big], den // g


def _class_target(lat: IntegralLattice, rep_pairings) -> tuple[list[int], int]:
    """(big, den) with big / den the halved class target z / 2, in lowest terms.

    z = G^{-1} p = sign adj p / det for the positive form, with adj p from the
    lattice's O(n^2) solve on its validation factor (IntegralLattice.solve);
    den = 2 |det| reduced by the gcd with the entries of big.
    """
    det = lat.determinant
    flip = lat.sign if det > 0 else -lat.sign
    return _halved([flip * x for x in lat.solve(rep_pairings)], abs(det))


def _class_problem(lat: IntegralLattice, rep_pairings, radius=None) -> CosetProblem:
    """The class rep + 2L in basis coordinates of the positive form.

    The coset z + 2 Z^n of z = G^{-1} p is halved to z / 2 + Z^n
    (_class_target), so values and radius are a quarter of the squares.
    """
    big, den = _class_target(lat, rep_pairings)
    inner_radius = None if radius is None else Fraction(radius) / 4
    return CosetProblem(lat.positive_gram, [Fraction(x, den) for x in big], radius=inner_radius)


def _check_class_square(value: Fraction, rank: int, sign: CharClassSign) -> None:
    """The minimal square of a class is rank + 1 (plus) or rank - 1 (minus) mod 8."""
    expected = (rank + 1) % 8 if sign is CharClassSign.PLUS else (rank - 1) % 8
    if value.denominator != 1 or int(value) % 8 != expected:
        raise CongruenceViolationError(
            f"class minimum {value} is not {expected} mod 8"
        )


def characteristic_class_reps(lat: IntegralLattice) -> dict[CharClassSign, Covector]:
    """Representatives of the two characteristic classes of a |det| = 2 lattice."""
    if abs(lat.determinant) != 2:
        raise NotBimodularError(f"|det| = {abs(lat.determinant)}, need 2")
    chi = base_characteristic(lat)
    gen = discriminant_group(lat).generators[0]
    shifted = chi.translate([2 * p for p in gen.pairings])
    reps = {}
    for cov in (chi, shifted):
        reps[char_class_sign(cov)] = cov
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
    RadiusEmptyError, naming radius, when no square is at most radius.
    """
    _require_positive(lat, "min_char_norm")
    if sign == "any" or sign is None:
        wanted, where, problem = None, "", _any_problem(lat, radius)
    else:
        wanted = CharClassSign(sign) if not isinstance(sign, CharClassSign) else sign
        rep = characteristic_class_reps(lat)[wanted].pairings
        where, problem = f" in the {wanted.value} class", _class_problem(lat, rep, radius)
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
        pairings = [tuple(p + 2 * s for p, s in zip(rep, shift)) for shift in shifts]
    return EnumerationResult(
        min_norm=value,
        minimizers=_collapse_pairings(pairings),
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
    are those min_char_norm finds, by the same searches (each with its own
    node_budget), but only their values are kept; the two class searches
    share one reduction and factorization of the Gram matrix.
    """
    _require_positive(lat, "defects")
    det = abs(lat.determinant)
    n = lat.rank
    if det == 1:
        square = 4 * coset_minima([_any_problem(lat)], node_budget=node_budget)[0][0]
        d = Fraction(square - n, 4)
        return Defects(d_plus=d, d_minus=d)
    if det == 2:
        reps = characteristic_class_reps(lat)
        signs = (CharClassSign.PLUS, CharClassSign.MINUS)
        problems = [_class_problem(lat, reps[s].pairings) for s in signs]
        minima = coset_minima(problems, node_budget=node_budget)
        squares = [4 * value for value, _nodes in minima]
        for sign, square in zip(signs, squares):
            _check_class_square(square, n, sign)
        # a square n +- 1 mod 8 is a defect +-1/4 mod 2, so the residues hold
        d_plus, d_minus = (Fraction(square - n, 4) for square in squares)
        return Defects(d_plus=d_plus, d_minus=d_minus)
    raise UnsupportedDeterminantError(f"defects need |det| in {{1, 2}}, got {det}")


def max_char_square(
    lat: IntegralLattice,
    class_rep: Covector,
    *,
    node_budget: int | None = None,
) -> Fraction:
    """Largest square over the class rep + 2L of a negative definite lattice.

    Equals minus the minimal square of the corresponding coset in the
    positive definite negation. A forest-shaped Gram matrix is solved exactly
    by the tree dynamic program (plan_minimum on the lattice's forest_plan),
    where node_budget bounds its nodes; any other goes through the
    branch-and-bound search.
    """
    if lat.sign >= 0:
        raise NotNegativeDefiniteError("max_char_square needs a negative definite lattice")
    if class_rep.lattice != lat:
        raise NotCharacteristicError("class representative belongs to a different lattice")
    if not is_characteristic(class_rep):
        raise NotCharacteristicError(
            f"pairings {class_rep.pairings} are not characteristic"
        )
    plan = lat.forest_plan
    if plan is not None:
        # z = G^-1 p = adj p / |det| for the positive Gram G
        big, den = _halved(plan_solve(plan, class_rep.pairings), plan.determinant)
        return -4 * plan_minimum(plan, big, den, node_budget=node_budget)[0]
    [(value, _nodes)] = coset_minima(
        [_class_problem(lat, class_rep.pairings)], node_budget=node_budget
    )
    return -4 * value
