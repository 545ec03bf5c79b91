"""Unimodular overlattices glued from two determinant-2 lattices.

Given positive definite L and A with |det| = 2, the direct sum extends to a
unimodular integral overlattice by adjoining x + y, where x and y generate
the two discriminant groups. The overlattice contains L + A with index 2 and
meets the rational spans of L and A exactly in L and A.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import GlueFailureError, NotBimodularError
from .lattice import (
    Covector,
    IntegralLattice,
    direct_sum,
    discriminant_group,
    validate_lattice,
    _require_positive,
)
from .linalg import (
    adjugate,
    bareiss_determinant,
    hermite_row_basis,
    integer_row_kernel,
    mat_mul,
    mat_vec,
    quadratic_value,
    transpose,
    vec_mat,
)


@dataclass(frozen=True)
class Overlattice(IntegralLattice):
    """Unimodular lattice containing left + right with index 2.

    basis_change rows express the overlattice basis in coordinates of the
    direct sum basis (left block first).
    """

    basis_change: tuple[tuple[Fraction, ...], ...]
    sublattice_index: int
    left: IntegralLattice
    right: IntegralLattice

    @cached_property
    def _doubled_basis(self) -> tuple[tuple[int, ...], ...]:
        """basis2 = 2 * basis_change, the integer matrix gluing works on."""
        doubled = [[2 * x for x in row] for row in self.basis_change]
        if any(x.denominator != 1 for row in doubled for x in row):
            raise GlueFailureError("basis change is not half-integral")
        return tuple(tuple(int(x) for x in row) for row in doubled)

    @cached_property
    def _doubled_adjugate(self) -> tuple[list[list[int]], int]:
        """(adj, det) of _doubled_basis, so basis_change^-1 = 2 adj / det."""
        return adjugate(self._doubled_basis)


def _doubled_glue_coordinates(lat: IntegralLattice) -> list[int]:
    """Twice the coordinates of the canonical discriminant generator.

    The generator's coordinates are G^-1 p = adj p / det; doubling them must
    clear the denominator det = +-2.
    """
    group = discriminant_group(lat)
    if group.orders != (2,):
        raise NotBimodularError(f"discriminant group has orders {group.orders}")
    det = lat.determinant
    coords = [2 * x for x in mat_vec(lat.adjugate, list(group.generators[0].pairings))]
    if any(x % det for x in coords):
        raise GlueFailureError("glue vector is not half-integral")
    return [x // det for x in coords]


def _saturation_check(basis2, lo: int, hi: int, n: int) -> None:
    """The overlattice must meet the rational span of the block in the block.

    basis2: twice the overlattice basis, in direct-sum coordinates. Checks
    that integer combinations landing in coordinates [lo, hi) form exactly
    the block lattice.
    """
    outside = [[row[j] for j in range(n) if not lo <= j < hi] for row in basis2]
    kernel = integer_row_kernel(outside)
    if len(kernel) != hi - lo:
        raise GlueFailureError("intersection with a summand has wrong rank")
    block = []
    for y in kernel:
        coords = vec_mat(y, basis2)
        if any(coords[j] != 0 for j in range(n) if not lo <= j < hi):
            raise GlueFailureError("kernel vector leaves the summand span")
        inside = coords[lo:hi]
        if any(c % 2 for c in inside):
            raise GlueFailureError("intersection vector is not integral")
        block.append([c // 2 for c in inside])
    if abs(bareiss_determinant(block)) != 1:
        raise GlueFailureError("intersection with a summand is a proper sublattice")


def glue_overlattice(left: IntegralLattice, right: IntegralLattice) -> Overlattice:
    """Build the unimodular overlattice of two positive definite |det| = 2 lattices.

    Everything runs on the integer doubled basis: twice the glue vector, and
    basis2, twice the overlattice basis. Each halving is checked first.
    """
    for lat in (left, right):
        _require_positive(lat, "glue_overlattice")
        if abs(lat.determinant) != 2:
            raise NotBimodularError(f"|det| = {abs(lat.determinant)}, need 2")
    n_left = left.rank
    n = n_left + right.rank
    summed = direct_sum(left, right)
    glue2 = _doubled_glue_coordinates(left) + _doubled_glue_coordinates(right)
    square4 = quadratic_value(summed.gram, glue2)
    if square4 % 4:
        raise GlueFailureError(
            f"glue vector has non-integral self-pairing {Fraction(square4, 4)}"
        )
    doubled = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    doubled.append(glue2)
    basis2 = hermite_row_basis(doubled)
    if len(basis2) != n:
        raise GlueFailureError("glued generators do not span the full rank")
    gram4 = mat_mul(mat_mul(basis2, summed.gram), transpose(basis2))
    if any(x % 4 for row in gram4 for x in row):
        raise GlueFailureError("overlattice Gram is not integral")
    lattice = validate_lattice([[x // 4 for x in row] for row in gram4])
    if abs(lattice.determinant) != 1:
        raise GlueFailureError(f"overlattice determinant is {lattice.determinant}")
    _saturation_check(basis2, 0, n_left, n)
    _saturation_check(basis2, n_left, n, n)
    return Overlattice(
        gram=lattice.gram,
        sign=lattice.sign,
        determinant=lattice.determinant,
        basis_change=tuple(tuple(Fraction(x, 2) for x in row) for row in basis2),
        sublattice_index=2,
        left=left,
        right=right,
    )


def double(lat: IntegralLattice) -> Overlattice:
    """Glue a |det| = 2 lattice to itself."""
    return glue_overlattice(lat, lat)


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
    adj, det = over._doubled_adjugate
    ints = [2 * p for p in mat_vec(adj, list(cov.pairings))]
    if any(p % det for p in ints):
        pairings = [Fraction(p, det) for p in ints]
        raise GlueFailureError(f"restricted pairings {pairings} are not integral")
    ints = [p // det for p in ints]
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
