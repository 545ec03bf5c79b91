"""Unimodular overlattices glued from two determinant-2 lattices.

Given positive definite L and A with |det| = 2, the direct sum extends to a
unimodular integral overlattice by adjoining x + y, where x and y generate
the two discriminant groups. The overlattice contains L + A with index 2 and
meets the rational spans of L and A exactly in L and A.

All of it runs on integers: twice the glue vector, and basis2, twice the
overlattice basis in direct-sum coordinates. basis2 is the Hermite form of
2 Z^n and the doubled glue vector g, written down in closed form: with k the
first odd entry of g, row k is g mod 2 and every other row is 2 e_i. So it
is upper triangular with pivots 1 and 2. The Gram product, restriction by
back-substitution and the saturation test all use that shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import GlueFailureError, NotBimodularError
from .lattice import (
    Covector,
    IntegralLattice,
    discriminant_group,
    validate_lattice,
    _block_diagonal,
    _require_positive,
)
from .linalg import mat_vec, quadratic_value


@dataclass(frozen=True)
class Overlattice(IntegralLattice):
    """Unimodular lattice containing left + right with index 2.

    basis_change rows express the overlattice basis in coordinates of the
    direct sum basis (left block first). It must be half-integral and upper
    triangular with a nonzero diagonal, as is the Hermite form that
    glue_overlattice builds. restrict_covector back-substitutes on it and
    raises GlueFailureError for any other basis.
    """

    basis_change: tuple[tuple[Fraction, ...], ...]
    sublattice_index: int
    left: IntegralLattice
    right: IntegralLattice

    @cached_property
    def _doubled_basis(self) -> tuple[tuple[int, ...], ...]:
        """basis2 = 2 * basis_change, the integer matrix gluing works on.

        Read off numerators and denominators, so no Fraction is built."""
        rows = self.basis_change
        if any(x.denominator not in (1, 2) for row in rows for x in row):
            raise GlueFailureError("basis change is not half-integral")
        return tuple(tuple(2 * x.numerator // x.denominator for x in row) for row in rows)


def _doubled_glue_coordinates(lat: IntegralLattice) -> list[int]:
    """Twice the coordinates of the canonical discriminant generator.

    The generator's coordinates are G^-1 p = adj p / det; doubling them must
    clear the denominator det = +-2. The group is cached on the lattice, and
    adj p is one O(n^2) solve on its validation factor (IntegralLattice.solve).
    """
    group = discriminant_group(lat)
    if group.orders != (2,):
        raise NotBimodularError(f"discriminant group has orders {group.orders}")
    det = lat.determinant
    coords = [2 * x for x in lat.solve(group.generators[0].pairings)]
    if any(x % det for x in coords):
        raise GlueFailureError("glue vector is not half-integral")
    return [x // det for x in coords]


def _check_summand_spans(glue2, n_left: int) -> None:
    """The overlattice must meet the rational span of each summand in that
    summand: each half of glue2 needs an odd entry.

    With g = glue2 = (g_L, g_R), the overlattice in direct-sum coordinates
    is M = Z^n + Z g/2, and an element of M is z + c g/2 with z integral and
    c in {0, 1}. It lies in the span of the left summand when its right
    coordinates vanish, z_R + c g_R / 2 = 0. If g_R has an odd entry, that
    forces c = 0, so M meets the span in Z^{n_L}, the left summand. If g_R
    is even, (g_L / 2, 0) = g/2 - (0, g_R / 2) lies in M and in the span,
    and it is not integral unless g_L is even too, in which case g/2 is
    integral and M = Z^n has index 1, which the determinant check rules out
    first. So at index 2 the parity of g_R decides saturation on the left
    exactly, and symmetrically g_L on the right. O(n), no Smith form.
    """
    halves = (("left", glue2[n_left:], "right"), ("right", glue2[:n_left], "left"))
    for side, other, other_name in halves:
        if all(x % 2 == 0 for x in other):
            raise GlueFailureError(
                f"glue vector is even on the {other_name} summand, so the "
                f"overlattice meets the {side} span in more than the {side} summand"
            )


def _basis2(glue2) -> tuple[tuple[int, ...], ...]:
    """basis2, the Hermite form of 2 Z^n and glue2, in closed form.

    Modulo 2 Z^n, glue2 is glue2 mod 2. With k its first odd entry, the rows
    2 e_i (i != k) and glue2 mod 2 in row k are upper triangular with pivots
    2 and 1, and entries in {0, 1} above each pivot 2: the Hermite form. With
    no odd entry it is 2I, which the determinant check rejects.
    """
    n = len(glue2)
    rows = [tuple(2 if i == j else 0 for j in range(n)) for i in range(n)]
    k = next((i for i, x in enumerate(glue2) if x % 2), None)
    if k is not None:
        rows[k] = tuple(x % 2 for x in glue2)
    return tuple(rows)


def _doubled_gram(basis2, gram) -> list[list[int]]:
    """gram4 = basis2 gram basis2^T, through the nonzero entries of basis2's
    rows: at most 2n of them, so O(n^2) work in place of two n^3 products."""
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in basis2]
    n = len(gram)
    left = [[sum(x * gram[j][c] for j, x in row) for c in range(n)] for row in rows]
    return [[sum(lrow[j] * x for j, x in row) for row in rows] for lrow in left]


def glue_overlattice(left: IntegralLattice, right: IntegralLattice) -> Overlattice:
    """Build the unimodular overlattice of two positive definite |det| = 2 lattices.

    Everything runs on the integer doubled basis: twice the glue vector, and
    basis2, twice the overlattice basis. Each halving is checked first.
    """
    for lat in (left, right):
        _require_positive(lat, "glue_overlattice")
        if abs(lat.determinant) != 2:
            raise NotBimodularError(f"|det| = {abs(lat.determinant)}, need 2")
    summed = _block_diagonal(left, right)  # both blocks are validated already
    glue2 = _doubled_glue_coordinates(left) + _doubled_glue_coordinates(right)
    square4 = quadratic_value(summed, glue2)
    if square4 % 4:
        raise GlueFailureError(
            f"glue vector has non-integral self-pairing {Fraction(square4, 4)}"
        )
    basis2 = _basis2(glue2)
    gram4 = _doubled_gram(basis2, summed)
    if any(x % 4 for row in gram4 for x in row):
        raise GlueFailureError("overlattice Gram is not integral")
    lattice = validate_lattice([[x // 4 for x in row] for row in gram4])
    if abs(lattice.determinant) != 1:
        raise GlueFailureError(f"overlattice determinant is {lattice.determinant}")
    _check_summand_spans(glue2, left.rank)
    return Overlattice(
        gram=lattice.gram,
        sign=lattice.sign,
        determinant=lattice.determinant,
        factor=lattice.factor,
        basis_change=tuple(tuple(Fraction(x, 2) for x in row) for row in basis2),
        sublattice_index=2,
        left=left,
        right=right,
    )


def _restricted_pairings(basis2, pairings) -> list[int]:
    """q with basis2 q = 2 p, by back-substitution on the triangular basis2.

    Overlattice pairings are p = basis_change q for the summand pairings q,
    so q = 2 basis2^-1 p. Raises GlueFailureError when basis2 is not upper
    triangular with a nonzero diagonal, and when a division is not exact:
    the entries below it are already exact integers, so that entry of q is
    not an integer.
    """
    n = len(basis2)
    q = [0] * n
    for i in range(n - 1, -1, -1):
        row = basis2[i]
        pivot = row[i]
        if pivot == 0 or any(row[:i]):
            raise GlueFailureError(
                "doubled basis is not upper triangular with a nonzero diagonal"
            )
        num = 2 * pairings[i] - sum(row[j] * q[j] for j in range(i + 1, n))
        q[i], rest = divmod(num, pivot)
        if rest:
            raise GlueFailureError(
                f"restricted pairing {i} is {Fraction(num, pivot)}, not integral"
            )
    return q


def restrict_covector(cov: Covector, side: str) -> Covector:
    """Orthogonal projection of an overlattice covector to one summand.

    The projection pairs with summand vectors exactly as the original does,
    so its pairing vector is read off through the inverse basis change.
    """
    over = cov.lattice
    if not isinstance(over, Overlattice):
        raise ValueError("covector does not live on a glued overlattice")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    ints = _restricted_pairings(over._doubled_basis, cov.pairings)
    n_left = over.left.rank
    if side == "left":
        return Covector(tuple(ints[:n_left]), over.left)
    return Covector(tuple(ints[n_left:]), over.right)


def extend_covector(over: Overlattice, left_cov: Covector, right_cov: Covector) -> Covector | None:
    """Combine summand covectors into an overlattice covector when possible.

    Returns None when the combined functional is not integral on the
    overlattice.
    """
    if left_cov.lattice != over.left or right_cov.lattice != over.right:
        raise ValueError("covectors do not match the glued summands")
    stacked = list(left_cov.pairings) + list(right_cov.pairings)
    doubled = mat_vec(over._doubled_basis, stacked)
    if any(p % 2 for p in doubled):
        return None
    return Covector(tuple(p // 2 for p in doubled), over)
