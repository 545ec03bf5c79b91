"""Unimodular overlattices glued from two determinant-2 lattices.

Given positive definite L and A with |det| = 2, the direct sum extends to a
unimodular integral overlattice by adjoining x + y, where x and y generate
the two discriminant groups. The overlattice contains L + A with index 2 and
meets the rational spans of L and A exactly in L and A.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    bareiss_determinant,
    hermite_row_basis,
    integer_row_kernel,
    invert_matrix,
    mat_mul,
    mat_vec,
    transpose,
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


def _glue_coordinates(lat: IntegralLattice) -> list[Fraction]:
    """Rational coordinates of the canonical discriminant generator."""
    group = discriminant_group(lat)
    if group.orders != (2,):
        raise NotBimodularError(f"discriminant group has orders {group.orders}")
    gen = group.generators[0]
    inv = invert_matrix(lat.gram)
    return mat_vec(inv, list(gen.pairings))


def _saturation_check(basis_rows, lo: int, hi: int, n: int) -> None:
    """The overlattice must meet the rational span of the block in the block.

    basis_rows: overlattice basis in direct-sum coordinates. Checks that
    integer combinations landing in coordinates [lo, hi) form exactly the
    block lattice.
    """
    outside = [
        [2 * row[j] for j in range(n) if not lo <= j < hi] for row in basis_rows
    ]
    outside_int = [[int(x) for x in row] for row in outside]
    if any(x != y for row, irow in zip(outside, outside_int) for x, y in zip(row, irow)):
        raise GlueFailureError("basis change is not half-integral")
    kernel = integer_row_kernel(outside_int)
    if len(kernel) != hi - lo:
        raise GlueFailureError("intersection with a summand has wrong rank")
    block = []
    for y in kernel:
        coords = [sum(Fraction(y[i]) * basis_rows[i][j] for i in range(n)) for j in range(n)]
        if any(coords[j] != 0 for j in range(n) if not lo <= j < hi):
            raise GlueFailureError("kernel vector leaves the summand span")
        inside = coords[lo:hi]
        if any(c.denominator != 1 for c in inside):
            raise GlueFailureError("intersection vector is not integral")
        block.append([int(c) for c in inside])
    if abs(bareiss_determinant(block)) != 1:
        raise GlueFailureError("intersection with a summand is a proper sublattice")


def glue_overlattice(left: IntegralLattice, right: IntegralLattice) -> Overlattice:
    """Build the unimodular overlattice of two positive definite |det| = 2 lattices."""
    for lat in (left, right):
        _require_positive(lat, "glue_overlattice")
        if abs(lat.determinant) != 2:
            raise NotBimodularError(f"|det| = {abs(lat.determinant)}, need 2")
    n_left = left.rank
    n = n_left + right.rank
    summed = direct_sum(left, right)
    glue_vec = _glue_coordinates(left) + _glue_coordinates(right)
    self_pairing = sum(
        glue_vec[i] * summed.gram[i][j] * glue_vec[j]
        for i in range(n)
        for j in range(n)
    )
    if self_pairing.denominator != 1:
        raise GlueFailureError(
            f"glue vector has non-integral self-pairing {self_pairing}"
        )
    doubled = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    scaled_glue = [2 * x for x in glue_vec]
    if any(x.denominator != 1 for x in scaled_glue):
        raise GlueFailureError("glue vector is not half-integral")
    doubled.append([int(x) for x in scaled_glue])
    basis2 = hermite_row_basis(doubled)
    if len(basis2) != n:
        raise GlueFailureError("glued generators do not span the full rank")
    rows = tuple(tuple(Fraction(x, 2) for x in row) for row in basis2)
    gram = mat_mul(mat_mul([list(r) for r in rows], [list(g) for g in summed.gram]),
                   transpose([list(r) for r in rows]))
    if any(x.denominator != 1 for row in gram for x in row):
        raise GlueFailureError("overlattice Gram is not integral")
    lattice = validate_lattice([[int(x) for x in row] for row in gram])
    if abs(lattice.determinant) != 1:
        raise GlueFailureError(f"overlattice determinant is {lattice.determinant}")
    _saturation_check(rows, 0, n_left, n)
    _saturation_check(rows, n_left, n, n)
    return Overlattice(
        gram=lattice.gram,
        sign=lattice.sign,
        determinant=lattice.determinant,
        basis_change=rows,
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
    inverse = invert_matrix([list(r) for r in over.basis_change])
    pairings = mat_vec(inverse, list(cov.pairings))
    if any(p.denominator != 1 for p in pairings):
        raise GlueFailureError(f"restricted pairings {pairings} are not integral")
    ints = [int(p) for p in pairings]
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
    pairings = [
        sum(row[j] * stacked[j] for j in range(len(stacked)))
        for row in over.basis_change
    ]
    if any(p.denominator != 1 for p in pairings):
        return None
    return Covector(tuple(int(p) for p in pairings), over)
