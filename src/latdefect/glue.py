"""Unimodular overlattices glued from two determinant-2 lattices.

Given positive definite L and A with |det| = 2, the direct sum extends to a
unimodular integral overlattice by adjoining x + y, where x and y generate
the two discriminant groups. The overlattice contains L + A with index 2 and
meets the rational spans of L and A exactly in L and A.

All of it runs on integers and on one parity vector. With g twice the glue
vector in direct-sum coordinates, the overlattice is Z^n + Z e/2 for the
glue parity e = g mod 2. With k the first index where e_k = 1, its basis is
b_i = (unit vector i) for i != k and b_k = e/2: the Hermite form of the
doubled basis, read off in closed form. The Gram matrix, restriction and
extension are closed forms in e and k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GlueFailureError
from .lattice import (
    Covector,
    IntegralLattice,
    discriminant_group,
    validate_lattice,
    _block_diagonal,
    _require_bimodular,
    _require_positive,
)


@dataclass(frozen=True)
class Overlattice(IntegralLattice):
    """Unimodular lattice containing left + right with index 2.

    glue is the glue parity e, in direct-sum coordinates (left block
    first): the overlattice is Z^n + Z e/2, in the basis of the module
    docstring.
    """

    glue: tuple[int, ...]
    left: IntegralLattice
    right: IntegralLattice

    sublattice_index = 2

    @property
    def basis_change(self) -> tuple[tuple[Fraction, ...], ...]:
        """Rows express the overlattice basis in direct-sum coordinates: unit
        rows, except e/2 at row k. An Overlattice always has an odd glue
        entry, since glue_overlattice rejects the even one on its determinant."""
        k = self.glue.index(1)
        n = len(self.glue)
        return tuple(
            tuple(Fraction(x, 2) for x in self.glue) if i == k
            else tuple(Fraction(int(i == j)) for j in range(n))
            for i in range(n)
        )


def _doubled_glue_coordinates(lat: IntegralLattice) -> list[int]:
    """Twice the coordinates of the canonical discriminant generator.

    The generator's coordinates are G^-1 p = adj p / det; doubling them must
    clear the denominator det = +-2. The group is cached on the lattice, and
    adj p is one O(n^2) solve on its validation factor (IntegralLattice.solve).
    """
    det = lat.determinant
    coords = [2 * x for x in lat.solve(discriminant_group(lat).generators[0].pairings)]
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


def _glued_gram(gram, e) -> list[list[int]]:
    """The Gram matrix of the basis b: G_ij for i, j != k, (eG)_j / 2 in
    row and column k, and eGe / 4 at (k, k). Raises GlueFailureError when a
    halving is not exact. With no odd entry the overlattice is Z^n, of
    index 1, and its Gram matrix is G, which the determinant check rejects.

    eGe / 4 is the glue vector's self-pairing: with g = e + 2v twice the
    glue vector, gGg = eGe + 4 (eGv + vGv), so g/2 pairs integrally with
    itself exactly when eGe = 0 (mod 4).
    """
    if 1 not in e:
        return gram
    k = e.index(1)
    odd = [j for j, x in enumerate(e) if x]
    eg = [sum(gram[j][c] for j in odd) for c in range(len(gram))]
    ege = sum(eg[j] for j in odd)
    if ege % 4:
        raise GlueFailureError(f"glue vector has non-integral self-pairing {Fraction(ege, 4)}")
    if any(x % 2 for j, x in enumerate(eg) if j != k):
        raise GlueFailureError("overlattice Gram is not integral")
    row = [x // 2 for x in eg]
    row[k] = ege // 4
    out = [list(r) for r in gram]
    out[k] = row
    for j, x in enumerate(row):
        out[j][k] = x
    return out


def glue_overlattice(left: IntegralLattice, right: IntegralLattice) -> Overlattice:
    """Build the unimodular overlattice of two positive definite |det| = 2 lattices.

    Everything runs on integers: twice the glue vector and its parity.
    Each halving is checked first, once, in _glued_gram.
    """
    for lat in (left, right):
        _require_positive(lat, "glue_overlattice")
        _require_bimodular(lat)
    summed = _block_diagonal(left, right)  # both blocks are validated already
    glue2 = _doubled_glue_coordinates(left) + _doubled_glue_coordinates(right)
    e = tuple(x % 2 for x in glue2)
    lattice = validate_lattice(_glued_gram(summed, e))
    if abs(lattice.determinant) != 1:
        raise GlueFailureError(f"overlattice determinant is {lattice.determinant}")
    _check_summand_spans(e, left.rank)
    return Overlattice(
        gram=lattice.gram,
        sign=lattice.sign,
        determinant=lattice.determinant,
        factor=lattice.factor,
        glue=e,
        left=left,
        right=right,
    )


def restrict_covector(cov: Covector, side: str) -> Covector:
    """Orthogonal projection of an overlattice covector to one summand.

    The projection pairs with summand vectors exactly as the original does.
    So its pairings q are the pairings p except at k, where b_k = e/2 gives
    p_k = (q_k + sum of q_j over the other j with e_j = 1) / 2.
    """
    over = cov.lattice
    if not isinstance(over, Overlattice):
        raise ValueError("covector does not live on a glued overlattice")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    p = cov.pairings
    k = over.glue.index(1)
    q = list(p)
    q[k] = 2 * p[k] - sum(x for j, x in enumerate(p) if over.glue[j] and j != k)
    n_left = over.left.rank
    if side == "left":
        return Covector(tuple(q[:n_left]), over.left)
    return Covector(tuple(q[n_left:]), over.right)


def extend_covector(over: Overlattice, left_cov: Covector, right_cov: Covector) -> Covector | None:
    """Combine summand covectors into an overlattice covector when possible.

    The pairings s carry over except at k, which pairs with e/2 to half the
    sum t of s_j over e_j = 1. Returns None when t is odd: the combined
    functional is then not integral on the overlattice.
    """
    if left_cov.lattice != over.left or right_cov.lattice != over.right:
        raise ValueError("covectors do not match the glued summands")
    stacked = list(left_cov.pairings) + list(right_cov.pairings)
    t = sum(s for s, x in zip(stacked, over.glue) if x)
    if t % 2:
        return None
    stacked[over.glue.index(1)] = t // 2
    return Covector(tuple(stacked), over)
