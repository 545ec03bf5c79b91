"""Randomized property suites over exactly checkable invariants.

Each suite conjugates known lattices by random unimodular matrices or draws
random rational data, then asserts theorems the rest of the package relies
on. Failures are collected and raised together so a run reports every
violated instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .defects import characteristic_class_reps, defects
from .enumeration import check_node_budget
from .errors import SuiteFailureError, ToolkitError
from .glue import extend_covector, glue_overlattice, restrict_covector
from .lattice import (
    Covector,
    IntegralLattice,
    a1_lattice,
    base_characteristic,
    char_class_sign,
    diagonal_bimodular_lattice,
    direct_sum,
    discriminant_group,
    e7_lattice,
    e8_lattice,
    identity_lattice,
    is_characteristic,
    is_diagonal,
    is_diagonal_bimodular,
    validate_lattice,
    _class_residue,
)
from .linalg import integer_entries, mat_mul, mat_vec, require_square, transpose
from .plumbing import SeifertData, canonical_plumbing, h1_order, neg_continued_fraction

# the defaults of verify_suite and of `latdefect verify`
DEFAULT_RANK_BOUND = 8
DEFAULT_TRIALS = 100
_ENTRY_CAP = 3


@dataclass(frozen=True)
class SuiteReport:
    name: str
    trials: int
    checks: int
    seed: int


def random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """Random determinant +-1 integer matrix with entries bounded by
    _ENTRY_CAP: 4n random column shears, swaps and negations of the
    identity, where a shear that would break the bound is skipped."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        kind = rng.randrange(3)
        if kind == 0 and n > 1:
            i, j = rng.sample(range(n), 2)
            s = rng.choice((-1, 1))
            # only column j changes, and every other entry is within the cap
            if all(abs(row[j] + s * row[i]) <= _ENTRY_CAP for row in u):
                for row in u:
                    row[j] += s * row[i]
        elif kind == 1 and n > 1:
            i, j = rng.sample(range(n), 2)
            for row in u:
                row[i], row[j] = row[j], row[i]
        else:
            i = rng.randrange(n)
            for row in u:
                row[i] = -row[i]
    return u


def conjugate_lattice(lat: IntegralLattice, u: list[list[int]]) -> IntegralLattice:
    """The same bilinear form written in a new basis.

    u must be rank x rank (FormatError, or ValueError for another size)
    and its entries follow the one integer rule (NotIntegerError).
    det(u^T G u) = det(u)^2 det(G), so the determinants differ exactly when
    u is not unimodular, and then ToolkitError is raised.
    """
    u = [integer_entries(row) for row in u]
    require_square(u)
    if len(u) != lat.rank:
        raise ValueError(f"basis change of size {len(u)}, the lattice has rank {lat.rank}")
    out = validate_lattice(mat_mul(mat_mul(transpose(u), lat.gram), u))
    if out.determinant != lat.determinant:
        raise ToolkitError("matrix is not unimodular")
    return out


class _Run:
    def __init__(self, rng: random.Random, node_budget):
        self.rng = rng
        self.node_budget = node_budget
        self.checks = 0
        self.violations: list[str] = []

    def check(self, condition: bool, message: str):
        self.checks += 1
        if not condition:
            self.violations.append(message)

    def defects(self, lat):
        return defects(lat, node_budget=self.node_budget)

    def conjugated(self, base: IntegralLattice) -> IntegralLattice:
        """base in a random unimodular basis drawn from the run's rng."""
        return conjugate_lattice(base, random_unimodular(self.rng, base.rank))


def _unimodular_bases(run: _Run, rank_bound: int) -> IntegralLattice:
    """One of I_m, E8 and I_k + E8, drawn uniformly; only the drawn one is
    built, after the same random numbers as building every candidate."""
    m = run.rng.randint(1, rank_bound)
    builders = [lambda: identity_lattice(m)]
    if rank_bound >= 8:
        builders.append(e8_lattice)
    if rank_bound >= 9:
        k = run.rng.randint(1, rank_bound - 8)
        builders.append(lambda: direct_sum(identity_lattice(k), e8_lattice()))
    return run.rng.choice(builders)()


def _bimodular_bases(run: _Run, rank_bound: int) -> IntegralLattice:
    """One of the diagonal det-2 lattice, E7 and A1 + E8, as above."""
    m = run.rng.randint(1, rank_bound)
    builders = [lambda: diagonal_bimodular_lattice(m)]
    if rank_bound >= 7:
        builders.append(e7_lattice)
    if rank_bound >= 9:
        builders.append(lambda: direct_sum(a1_lattice(), e8_lattice()))
    return run.rng.choice(builders)()


def _suite_elkies(run: _Run, rank_bound: int, trials: int):
    for _ in range(trials):
        lat = run.conjugated(_unimodular_bases(run, rank_bound))
        d = run.defects(lat).d_plus
        run.check(d <= 0, f"unimodular defect {d} > 0 for gram {lat.gram}")
        diagonal = is_diagonal(lat)
        run.check(
            (d == 0) == diagonal,
            f"defect {d} vs diagonalizable {diagonal} for gram {lat.gram}",
        )


def _suite_bimodular(run: _Run, rank_bound: int, trials: int):
    for _ in range(trials):
        lat = run.conjugated(_bimodular_bases(run, rank_bound))
        pair = run.defects(lat)
        total = pair.d_plus + pair.d_minus
        run.check(total <= 0, f"defect sum {total} > 0 for gram {lat.gram}")
        if total == 0:
            run.check(
                is_diagonal_bimodular(lat),
                f"defect sum 0 on a non-diagonal lattice {lat.gram}",
            )
            run.check(
                (pair.d_plus, pair.d_minus) == (Fraction(1, 4), Fraction(-1, 4)),
                f"defect sum 0 with pair ({pair.d_plus}, {pair.d_minus})",
            )


def _suite_congruence(run: _Run, rank_bound: int, trials: int):
    for _ in range(trials):
        lat = run.conjugated(_bimodular_bases(run, rank_bound))
        n = lat.rank
        shift = [run.rng.randint(-3, 3) for _ in range(n)]
        pairings = tuple(
            d + 2 * s for d, s in zip(base_characteristic(lat).pairings, shift)
        )
        cov = Covector(pairings, lat)
        norm = cov.positive_norm
        run.check(norm.denominator == 1, f"square {norm} is not an integer")
        try:
            sign = char_class_sign(cov)
        except ToolkitError as err:
            run.check(False, f"class sign failed: {err}")
            continue
        run.check(
            norm % 8 == _class_residue(n, sign),
            f"square {norm} has wrong residue for class {sign}",
        )
        gen = discriminant_group(lat).generators[0]
        flipped = cov.translate(tuple(2 * p for p in gen.pairings))
        run.check(
            char_class_sign(flipped) is sign.opposite,
            "translating by twice a dual generator kept the class",
        )
        move = mat_vec([list(r) for r in lat.gram], [run.rng.randint(-2, 2) for _ in range(n)])
        fixed = cov.translate(tuple(2 * int(x) for x in move))
        run.check(
            char_class_sign(fixed) is sign,
            "translating by twice a lattice vector changed the class",
        )


def _suite_glue(run: _Run, rank_bound: int, trials: int):
    for _ in range(trials):
        base_left = _bimodular_bases(run, rank_bound)
        base_right = _bimodular_bases(run, rank_bound)
        left, right = run.conjugated(base_left), run.conjugated(base_right)
        try:
            over = glue_overlattice(left, right)
        except ToolkitError as err:
            run.check(False, f"glue failed: {err}")
            continue
        run.check(abs(over.determinant) == 1, "overlattice is not unimodular")
        run.check(over.rank == left.rank + right.rank, "rank mismatch")
        chi = base_characteristic(over)
        left_part = restrict_covector(chi, "left")
        right_part = restrict_covector(chi, "right")
        run.check(
            is_characteristic(left_part) and is_characteristic(right_part),
            "restriction of a characteristic covector is not characteristic",
        )
        run.check(
            chi.positive_norm == left_part.positive_norm + right_part.positive_norm,
            "restricted squares do not add up",
        )
        run.check(
            char_class_sign(left_part) is char_class_sign(right_part).opposite,
            "restriction produced equal class signs",
        )
        left_reps = characteristic_class_reps(left)
        right_reps = characteristic_class_reps(right)
        for ls, lcov in left_reps.items():
            for rs, rcov in right_reps.items():
                extended = extend_covector(over, lcov, rcov)
                run.check(extended is not None, "characteristic pair did not extend")
                if extended is None:
                    continue
                run.check(
                    is_characteristic(extended) == (ls is rs.opposite),
                    f"extension characteristic mismatch for signs {ls}, {rs}",
                )
        half = extend_covector(
            over,
            discriminant_group(left).generators[0],
            Covector((0,) * right.rank, right),
        )
        run.check(half is None, "half-integral covector extended integrally")


def _suite_roundtrip(run: _Run, rank_bound: int, trials: int):
    for _ in range(trials):
        p = run.rng.choice([x for x in range(-50, 51) if x != 0])
        q = run.rng.randint(1, 50)
        r = Fraction(p, q)
        expansion = neg_continued_fraction(r)
        run.check(expansion.evaluate() == r, f"expansion of {r} does not evaluate back")
        if r < -1:
            run.check(
                all(a <= -2 for a in expansion.coefficients),
                f"expansion of {r} has a coefficient above -2",
            )
        legs = []
        for _ in range(run.rng.randint(0, 3)):
            a = run.rng.randint(2, 30)
            b = run.rng.randint(1, a - 1)
            legs.append(Fraction(-a, b))
        # each leg contributes less than 1 to the Euler number, so this
        # central framing keeps it negative and the plumbing definite
        central = run.rng.randint(-3, -1) - len(legs)
        try:
            data = SeifertData(central, tuple(legs))
        except ToolkitError:
            continue
        lat = canonical_plumbing(data).lattice
        run.check(
            abs(lat.determinant) == h1_order(data),
            f"plumbing determinant mismatch for {data}",
        )
        run.check(lat.sign == -1, f"plumbing of {data} is not negative definite")


_SUITES = {
    "elkies": _suite_elkies,
    "bimodular": _suite_bimodular,
    "congruence": _suite_congruence,
    "glue": _suite_glue,
    "roundtrip": _suite_roundtrip,
}
SUITE_NAMES = tuple(_SUITES)


def verify_suite(
    name: str,
    *,
    rank_bound: int = DEFAULT_RANK_BOUND,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    node_budget: int | None = None,
) -> SuiteReport:
    """Run one named suite; raises SuiteFailureError on any violation.

    The arguments are checked before any trial runs: rank_bound and trials
    must be at least 1, seed an int, so that every run can be repeated, and
    node_budget None or at least 1 (ValueError otherwise).
    """
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of {SUITE_NAMES}")
    for arg, value in (("rank_bound", rank_bound), ("trials", trials)):
        if type(value) is not int or value < 1:
            raise ValueError(f"{arg} must be an int of at least 1, got {value!r}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    check_node_budget(node_budget)
    run = _Run(random.Random(seed), node_budget)
    _SUITES[name](run, rank_bound, trials)
    if run.violations:
        raise SuiteFailureError(name, tuple(run.violations))
    return SuiteReport(name=name, trials=trials, checks=run.checks, seed=seed)
