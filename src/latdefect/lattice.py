"""Definite integral lattices and their characteristic covectors.

A lattice is stored by its integer Gram matrix exactly as supplied. Negative
definite input is accepted and tagged; searches, covector solves and covector
squares run on the positive definite form, while determinants and dual Gram
matrices refer to the matrix as given.

A covector (element of the dual lattice) is stored by its integer pairing
vector p with p[i] = <xi, e_i> against the chosen basis. It is characteristic
exactly when p is congruent to the Gram diagonal mod 2. For |det| = 2 the
characteristic covectors fall into two classes told apart by the square mod 8
(_class_residue). Those are the lattice's two spin-c classes chi + 2 G Z^n,
which spinc_classes lists for any |det| over the box of one
row Hermite basis of G, cached on the lattice for discriminant_group too; the
adj p of every rep comes from |free| + 1 solves per lattice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .enumeration import CosetProblem, ForestPlan, enumerate_in_coset, forest_plan
from .errors import (
    CongruenceViolationError,
    FormatError,
    NotBimodularError,
    NotCharacteristicError,
    NotDefiniteError,
    NotPositiveDefiniteError,
    ToolkitError,
)
from .linalg import (
    dot,
    exact_quotient,
    factor_solve,
    fraction_free_ldl,
    hermite_row_basis,
    integer_entries,
    invert_matrix,
    mat_mul,
    reduce_mod_rows,
    require_symmetric,
    sign_representatives,
    smith_normal_form,
    transpose,
)


# Input bounds: exact elimination costs grow with rank and entry size, so
# Gram matrices, plumbing trees and Seifert plumbings read from input are
# held to these (see formats and plumbing).
MAX_GRAM_RANK = 64
MAX_GRAM_ENTRY = 10**6
# Spin-c classes are walked one by one, each with its own correction term, so
# a plumbing is held to this many (|det| of its lattice; see spinc_classes).
MAX_SPINC_CLASSES = 2**16


class CharClassSign(Enum):
    PLUS = "plus"
    MINUS = "minus"

    @property
    def opposite(self) -> "CharClassSign":
        return CharClassSign.MINUS if self is CharClassSign.PLUS else CharClassSign.PLUS

    def __str__(self) -> str:
        return "+" if self is CharClassSign.PLUS else "-"


@dataclass(frozen=True)
class IntegralLattice:
    """Definite lattice; sign is +1 for positive definite, -1 for negative.

    factor is fraction_free_ldl(positive_gram), the elimination validation
    ran; every covector solve (solve) and the forest plan reuse it, so no
    dense adjugate or inverse is built for them.
    """

    gram: tuple[tuple[int, ...], ...]
    sign: int
    determinant: int
    factor: tuple = field(compare=False, repr=False, kw_only=True)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def positive_gram(self) -> tuple[tuple[int, ...], ...]:
        if self.sign > 0:
            return self.gram
        return tuple(tuple(-x for x in row) for row in self.gram)

    def solve(self, vec) -> list[int]:
        """adj(P) vec = |det| P^-1 vec for the positive definite form P, in integers.

        O(n^2) on the factor validation made (linalg.factor_solve). For the
        Gram matrix G = sign P as given, G^-1 vec = sign solve(vec) / |det|. An
        entry that is not an integer raises NotIntegerError (as Covector's
        do) and a length other than the rank ValueError. The factor's
        determinant must be |det|, or ToolkitError is raised.
        """
        vec = integer_entries(vec)
        if len(vec) != self.rank:
            raise ValueError(f"vector of length {len(vec)}, the lattice has rank {self.rank}")
        reached = self.factor[1][self.rank]
        if reached != abs(self.determinant):
            raise ToolkitError(
                f"factor reached determinant {reached}, "
                f"the lattice has determinant {self.determinant}"
            )
        return factor_solve(self.factor, vec)

    @cached_property
    def _discriminant_group(self) -> "DiscriminantGroup":
        """L'/L read off the Hermite box, with a Smith form on its non-unit block.

        The Hermite basis H of G Z^n is reduced (0 <= h_ij < h_jj above each
        pivot), so every class mod H has a representative on F = {i : h_ii > 1},
        and the rows of H at F vanish off F. So Z^n / G Z^n is Z^F / row(R) for
        their F x F block R, upper triangular of determinant |det|. With
        U R^T V = D, generator a is column a of U^-1, that is of R^T V divided
        by d_a, placed on F and reduced mod H.
        """
        hnf, free = self._hermite_box
        block = [[hnf[i][j] for i in free] for j in free]  # R^T
        diag, _left, right = smith_normal_form(block)
        orders = []
        gens = []
        for d, column in zip(diag, transpose(mat_mul(block, right))):
            if d > 1:
                orders.append(d)
                pairings = [0] * self.rank
                for i, x in zip(free, column):
                    pairings[i] = exact_quotient(x, d)
                gens.append(Covector(tuple(reduce_mod_rows(pairings, hnf)), self))
        total = 1
        for d in orders:
            total *= d
        if total != abs(self.determinant):
            raise ToolkitError(
                f"invariant factors multiply to {total}, not |det| = {abs(self.determinant)}"
            )
        return DiscriminantGroup(orders=tuple(orders), generators=tuple(gens))

    @cached_property
    def _hermite_box(self) -> tuple[list[list[int]], list[int]]:
        """(H, free): the row Hermite basis H of the positive Gram matrix and the
        indices of its pivots above 1, for discriminant_group and spinc_classes."""
        hnf = hermite_row_basis(self.positive_gram)
        return hnf, [i for i, row in enumerate(hnf) if row[i] > 1]

    @cached_property
    def forest_plan(self) -> ForestPlan | None:
        """The tree dynamic program's plan for the positive definite form, or
        None when its graph is not a forest.

        Built by elimination on the tree (enumeration.forest_plan) with the
        factor validation left: its determinant, checked against the
        factor's, is |det|, and its adjugate diagonal needs no dense adjugate.
        """
        return forest_plan(self.positive_gram, self.factor)

    @cached_property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.gram[i][i] for i in range(self.rank))


@dataclass(frozen=True)
class Covector:
    """Dual lattice element, stored by integer pairings against the basis."""

    pairings: tuple[int, ...]
    lattice: IntegralLattice

    def __post_init__(self):
        if len(self.pairings) != self.lattice.rank:
            raise ValueError("pairing vector length does not match lattice rank")
        object.__setattr__(self, "pairings", integer_entries(self.pairings))

    @cached_property
    def _adj(self) -> tuple[int, ...]:
        """adj(P) p for the positive definite form P, solved once per covector
        (spinc_classes sets it on its reps by linearity)."""
        return tuple(self.lattice.solve(self.pairings))

    @property
    def positive_norm(self) -> Fraction:
        """Square on the positive definite form: p^T adj(P) p / |det|."""
        return Fraction(dot(self.pairings, self._adj), abs(self.lattice.determinant))

    def translate(self, delta) -> "Covector":
        """self + delta; ValueError when delta's length is not the rank."""
        pairs = zip(self.pairings, integer_entries(delta), strict=True)
        return Covector(tuple(p + d for p, d in pairs), self.lattice)


@dataclass(frozen=True)
class SpinCClass:
    """A coset of twice the lattice inside the characteristic covectors."""

    representative: Covector


@dataclass(frozen=True)
class DiscriminantGroup:
    """Dual quotient L'/L as invariant factors with covector generators."""

    orders: tuple[int, ...]
    generators: tuple[Covector, ...]


def validate_lattice(gram) -> IntegralLattice:
    """Check shape, symmetry and definiteness, returning the tagged lattice.

    A matrix that is not square raises FormatError. One fraction-free LDL
    (linalg.fraction_free_ldl) factors the matrix, or its negation when the
    first entry is negative. Its k-th minor is the k-th leading principal
    minor, so by Sylvester's criterion the form is definite exactly when
    every minor is positive; NotDefiniteError reports the first that is not,
    and the last gives the determinant. The factor stays on the lattice.
    """
    rows = tuple(integer_entries(row) for row in gram)
    n = len(rows)
    if n == 0:
        raise NotDefiniteError(0, 0)
    require_symmetric(rows)
    sign = -1 if rows[0][0] < 0 else 1
    try:
        factor = fraction_free_ldl(rows if sign > 0 else [[-x for x in row] for row in rows])
    except NotPositiveDefiniteError as err:
        raise NotDefiniteError(err.pivot_index, err.minor) from None
    det = factor[1][n] if sign > 0 or n % 2 == 0 else -factor[1][n]
    return IntegralLattice(gram=rows, sign=sign, determinant=det, factor=factor)


def dual_gram(lat: IntegralLattice) -> tuple[tuple[Fraction, ...], ...]:
    """Gram matrix of the dual basis: the exact inverse of the Gram given,
    in Fractions, inverted anew on each call."""
    return tuple(tuple(row) for row in invert_matrix(lat.gram))


def base_characteristic(lat: IntegralLattice) -> Covector:
    """The covector pairing each basis vector to its own square."""
    return Covector(lat.diagonal, lat)


def is_characteristic(cov: Covector) -> bool:
    diag = cov.lattice.diagonal
    return all((p - d) % 2 == 0 for p, d in zip(cov.pairings, diag))


def _require_characteristic(cov: Covector) -> None:
    if not is_characteristic(cov):
        raise NotCharacteristicError(f"pairings {cov.pairings} are not characteristic")


def _require_bimodular(lat: IntegralLattice) -> None:
    if abs(lat.determinant) != 2:
        raise NotBimodularError(f"|det| = {abs(lat.determinant)}, need 2")


def _class_residue(rank: int, sign: CharClassSign | None) -> int:
    """The square mod 8 of a characteristic covector (van der Blij): rank + 1
    (plus) or rank - 1 (minus) if |det| = 2, rank for |det| = 1 (None)."""
    return (rank + {None: 0, CharClassSign.PLUS: 1, CharClassSign.MINUS: -1}[sign]) % 8


def char_class_sign(cov: Covector) -> CharClassSign:
    """Which of the two mod-8 classes a characteristic covector sits in.

    Squares are taken on the positive definite form so the classification is
    available for negative definite lattices as well. Requires |det| = 2.
    """
    lat = cov.lattice
    _require_bimodular(lat)
    _require_characteristic(cov)
    square = cov.positive_norm
    if square.denominator != 1:
        raise CongruenceViolationError(
            f"characteristic square {square} is not an integer"
        )
    residue = int(square) % 8
    signs = {_class_residue(lat.rank, sign): sign for sign in CharClassSign}
    if residue not in signs:
        raise CongruenceViolationError(
            f"characteristic square {square} is {residue} mod 8, expected {' or '.join(map(str, signs))}"
        )
    return signs[residue]


def discriminant_group(lat: IntegralLattice) -> DiscriminantGroup:
    """Invariant factors and canonical covector generators of L'/L.

    Generators are pairing vectors reduced to the canonical representative
    modulo the pairing image of L, so equal lattices yield equal generators.
    The group is computed once per lattice object and cached on it, so a
    second call runs no Smith or Hermite form.
    """
    return lat._discriminant_group


def spinc_classes(lat: IntegralLattice) -> tuple[SpinCClass, ...]:
    """All spin-c structures on the boundary, one characteristic rep each.

    The classes chi + 2 G Z^n correspond to the shifts in Z^n / G Z^n, whose
    reduced representatives modulo the row Hermite basis of G (cached on the
    lattice) are exactly the box 0 <= shift_i < h_ii over its pivots. So the
    reps are diag(G) + 2 shift over that box, base class first, and each
    rep's adj p (Covector._adj) is adj diag(G) + 2 sum of shift_i adj e_i.
    There are |det| of them; more than MAX_SPINC_CLASSES is rejected with
    FormatError before any is built.
    """
    count = abs(lat.determinant)
    if count > MAX_SPINC_CLASSES:
        raise FormatError(f"{count} spin-c classes exceed the limit of {MAX_SPINC_CLASSES}")
    hnf, free = lat._hermite_box
    base = lat.solve(lat.diagonal)
    adj_units = [lat.solve([int(j == i) for j in range(lat.rank)]) for i in free]
    classes = []
    for shift in itertools.product(*(range(hnf[i][i]) for i in free)):
        pairings = list(lat.diagonal)
        adj = base
        for i, s, unit in zip(free, shift, adj_units):
            pairings[i] += 2 * s
            adj = [a + 2 * s * u for a, u in zip(adj, unit)]
        rep = Covector(tuple(pairings), lat)
        vars(rep)["_adj"] = tuple(adj)
        classes.append(SpinCClass(rep))
    if len(classes) != count:
        raise ToolkitError(f"found {len(classes)} spin-c classes, expected |det| = {count}")
    return tuple(classes)


def _require_positive(lat: IntegralLattice, what: str) -> None:
    if lat.sign <= 0:
        raise NotPositiveDefiniteError(
            message=f"{what} requires a positive definite lattice"
        )


def _vectors_of_norm(lat: IntegralLattice, value: int) -> list[tuple[int, ...]]:
    """All lattice vectors of the exact given norm, one per +-pair, sorted."""
    problem = CosetProblem(lat.gram, [0] * lat.rank, radius=Fraction(value))
    hits, _nodes = enumerate_in_coset(problem)
    return sign_representatives(x for x, v in hits if v == value)


def roots(lat: IntegralLattice) -> list[tuple[int, ...]]:
    """Norm-2 lattice vectors, one representative per +-pair, lex sorted."""
    _require_positive(lat, "roots")
    return _vectors_of_norm(lat, 2)


def unit_vectors(lat: IntegralLattice) -> list[tuple[int, ...]]:
    _require_positive(lat, "unit vector search")
    return _vectors_of_norm(lat, 1)


def is_diagonal(lat: IntegralLattice) -> bool:
    """True exactly when the lattice is isometric to the standard cube lattice.

    unit_vectors lists one norm-1 vector per +-pair. For two of different
    pairs Cauchy-Schwarz gives |u.v| < 1, and u.v is an integer, so the
    units are orthonormal. So there are at most n of them, and n span a
    copy of Z^n, of determinant 1: the whole lattice.
    """
    _require_positive(lat, "is_diagonal")
    return len(unit_vectors(lat)) == lat.rank


def is_diagonal_bimodular(lat: IntegralLattice) -> bool:
    """True exactly when the lattice is the cube lattice plus one doubled axis.

    Requires |det| = 2. The norm-1 vectors are orthonormal (see is_diagonal),
    and n of them would force determinant 1. n - 1 of them span a unimodular
    Z^(n-1), which splits off; its rank-1 complement has determinant 2, so a
    norm-2 vector generates it. Conversely, Z^(n-1) plus a doubled axis has
    exactly n - 1 pairs of units.
    """
    _require_positive(lat, "is_diagonal_bimodular")
    _require_bimodular(lat)
    return len(unit_vectors(lat)) == lat.rank - 1


def _block_diagonal(left: IntegralLattice, right: IntegralLattice) -> list[list[int]]:
    """The Gram matrix of left + right, not validated."""
    n, m = left.rank, right.rank
    return [list(row) + [0] * m for row in left.gram] + [[0] * n + list(row) for row in right.gram]


def direct_sum(left: IntegralLattice, right: IntegralLattice) -> IntegralLattice:
    if left.sign != right.sign:
        raise ValueError("direct sum needs matching definiteness signs")
    return validate_lattice(_block_diagonal(left, right))


def identity_lattice(n: int) -> IntegralLattice:
    return validate_lattice([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def a1_lattice() -> IntegralLattice:
    return validate_lattice([[2]])


def diagonal_bimodular_lattice(n: int) -> IntegralLattice:
    """Cube lattice of rank n-1 plus one doubled axis; determinant 2."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    gram = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        gram[i][i] = 1
    gram[n - 1][n - 1] = 2
    return validate_lattice(gram)


def _tree_root_lattice(edges: list[tuple[int, int]], n: int) -> IntegralLattice:
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2
    for i, j in edges:
        gram[i][j] = gram[j][i] = -1
    return validate_lattice(gram)


# Trivalent-node descriptions of the two exceptional root lattices used in
# tests and generator pools: chains with one extra vertex attached.
E7_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)]
E8_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]


def e7_lattice() -> IntegralLattice:
    return _tree_root_lattice(E7_EDGES, 7)


def e8_lattice() -> IntegralLattice:
    return _tree_root_lattice(E8_EDGES, 8)
