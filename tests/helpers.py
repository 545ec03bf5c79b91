"""Shared test utilities: second routes (oracles), the call counter and the
fixtures several test modules draw.

Each oracle is independent of the code it checks. box_minimum walks the
whole box, bounded by the diagonal of sympy's inverse of the form. The
Fraction routes are the ones the integer-only kernel replaced:
fraction_inverse, ldl_validation, fraction_ldl, fraction_lll, babai_value,
reference_search (the oracle of the search's node counts), and
fraction_glue with fraction_restrict and fraction_extend. The dense Smith
and per-pivot routes are the ones the Hermite box, the two-pass Hermite
form and the closed forms replaced: discriminant_generators_by_inverse,
smith_spinc_keys, translate_class_reps, per_pivot_hermite_row_basis,
smith_row_kernel, smith_saturation_check and cell_message. lens_d,
torus_knot_v and tau_canonical_d are closed forms from the literature.

forest_minimum runs the tree DP on one CosetProblem, integer_target clears
a CosetProblem's target for coset_minima, outcome turns a kernel's
NotPositiveDefiniteError into a value to compare with its oracle's,
count_calls records the package functions a call reaches and on what
sizes, and tracer_layers reads the benchmark tracer's table. U7 takes E7
off the forests. The fixtures keep their random calls fixed, so that a
test's seeds keep drawing the same lattices; symmetric_matrices draws the
Gram matrices of the LDL^T, LLL and validation tests, and forest_problems
the forests of the tree DP and forest-plan tests.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import itertools
import math
import random
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import sympy
from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

from latdefect import (
    CosetProblem,
    NotPositiveDefiniteError,
    NotRationalHomologySphereError,
    SeifertData,
    a1_lattice,
    conjugate_lattice,
    diagonal_bimodular_lattice,
    direct_sum,
    e7_lattice,
    e8_lattice,
    identity_lattice,
    random_unimodular,
    validate_lattice,
)
from latdefect.dinvariant import _seifert_tree

# package modules whose bindings tests replace; the package re-exports
# functions under some of these names
DEFECTS = importlib.import_module("latdefect.defects")
GLUE = importlib.import_module("latdefect.glue")
LATTICE = importlib.import_module("latdefect.lattice")


def _round_half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


def quadratic_value(form, vec):
    n = len(vec)
    return sum(Fraction(form[i][j]) * vec[i] * vec[j] for i in range(n) for j in range(n))


def inverse_diagonal(form):
    mat = sympy.Matrix(
        [[sympy.Rational(Fraction(x)) for x in row] for row in form]
    )
    inv = mat.inv()
    return [Fraction(int(inv[i, i].p), int(inv[i, i].q)) for i in range(len(form))]


def _coordinate_range(t: Fraction, bound: Fraction):
    """Integers x with (t + x)^2 <= bound; empty when none exist."""
    x0 = _round_half_up(-t)
    if (t + x0) ** 2 > bound:
        return range(0)
    lo = x0
    while (t + lo - 1) ** 2 <= bound:
        lo -= 1
    hi = x0
    while (t + hi + 1) ** 2 <= bound:
        hi += 1
    return range(lo, hi + 1)


def box_minimum(form, target, radius=None):
    """Exhaustive minimum of (target + x)^T form (target + x) over x in Z^n.

    Returns (min_value, sorted list of minimizing x). With a radius, points
    above it are rejected and (None, []) signals an empty search.
    """
    n = len(form)
    t = [Fraction(v) for v in target]
    if n == 0:
        return Fraction(0), [()]
    rounded = [_round_half_up(-ti) for ti in t]
    at_rounded = quadratic_value(form, [ti + xi for ti, xi in zip(t, rounded)])
    cap = at_rounded if radius is None else min(at_rounded, Fraction(radius))
    inv_diag = inverse_diagonal(form)
    ranges = [_coordinate_range(t[i], cap * inv_diag[i]) for i in range(n)]
    best = None
    argmin: list[tuple[int, ...]] = []
    for x in itertools.product(*ranges):
        value = quadratic_value(form, [ti + xi for ti, xi in zip(t, x)])
        if value > cap:
            continue
        if best is None or value < best:
            best, argmin = value, [x]
        elif value == best:
            argmin.append(x)
    if best is None:
        return None, []
    return best, sorted(argmin)


def box_points_within(form, target, radius):
    """All x with value <= radius, with values; independent of box_minimum."""
    n = len(form)
    t = [Fraction(v) for v in target]
    bound = Fraction(radius)
    inv_diag = inverse_diagonal(form)
    ranges = [_coordinate_range(t[i], bound * inv_diag[i]) for i in range(n)]
    out = []
    for x in itertools.product(*ranges):
        value = quadratic_value(form, [ti + xi for ti, xi in zip(t, x)])
        if value <= bound:
            out.append((x, value))
    return sorted(out)


def collapse_sign_pairs(vectors):
    """One representative per {x, -x} pair, first nonzero entry positive."""
    vs = {tuple(v) for v in vectors}
    out = set()
    for v in vs:
        neg = tuple(-c for c in v)
        if neg in vs:
            lead = next((c for c in v if c != 0), 0)
            out.add(v if lead >= 0 else neg)
        else:
            out.add(v)
    return sorted(out)


def is_positive_definite(rows) -> bool:
    mat = sympy.Matrix([[int(x) for x in row] for row in rows])
    return all(mat[:k, :k].det() > 0 for k in range(1, len(rows) + 1))


def random_spd_gram(rng, max_rank=4, max_entry=6):
    """Seeded random symmetric positive definite integer matrix."""
    while True:
        n = rng.randint(1, max_rank)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(1, max_entry)
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(-2, 2)
        if is_positive_definite(rows):
            return rows


def random_target(rng, n, max_num=8, max_den=4):
    return [
        Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        for _ in range(n)
    ]


def fraction_inverse(mat):
    """Inverse by Gauss-Jordan over Fractions; ValueError when singular."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _fraction_pivots(q):
    """(lower, pivots) of the LDL^T elimination of q over Fractions, stopped
    at its first non-positive pivot, which is kept as the last pivot."""
    n = len(q)
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pivots = []
    for j in range(n):
        pivot = Fraction(q[j][j]) - sum(lower[j][k] ** 2 * pivots[k] for k in range(j))
        pivots.append(pivot)
        if pivot <= 0:
            break
        for i in range(j + 1, n):
            off = Fraction(q[i][j]) - sum(lower[i][k] * lower[j][k] * pivots[k] for k in range(j))
            lower[i][j] = off / pivot
    return lower, pivots


def ldl_validation(rows):
    """Definiteness through a Fraction LDL^T of the sign-normalised matrix.

    Returns ("definite", sign, det), or ("not definite", k, minor) for the
    first non-positive pivot k, whose leading principal minor is the product
    of the pivots so far.
    """
    sign = -1 if rows[0][0] < 0 else 1
    _lower, pivots = _fraction_pivots([[sign * x for x in row] for row in rows])
    minor = int(math.prod(pivots))
    if pivots[-1] <= 0:
        return ("not definite", len(pivots), minor)
    return ("definite", sign, minor * sign ** len(rows))


def fraction_ldl(q):
    """(lower, diag) of Q = L D L^T over Fractions; NotPositiveDefiniteError
    names the first non-positive pivot."""
    from latdefect import NotPositiveDefiniteError

    lower, diag = _fraction_pivots(q)
    if diag and diag[-1] <= 0:
        raise NotPositiveDefiniteError(len(diag))
    return lower, diag


def outcome(fn, *args):
    """fn(*args), or the pivot index of the NotPositiveDefiniteError it
    raises, so that a kernel and its oracle compare on every input."""
    try:
        return fn(*args)
    except NotPositiveDefiniteError as err:
        return ("not positive definite", err.pivot_index)


def babai_value(form, target):
    """Value of the nearest-plane rounding of -target, on the Fraction LDL^T:
    the oracle of the search's integer _nearest_plane."""
    lower, diag = fraction_ldl(form)
    n = len(diag)
    w = [Fraction(0)] * n
    total = Fraction(0)
    for i in range(n - 1, -1, -1):
        b = target[i] + sum(lower[j][i] * w[j] for j in range(i + 1, n))
        cand = _round_half_up(-b)
        w[i] = target[i] + cand
        total += diag[i] * (cand + b) ** 2
    return total


def reference_search(form, target):
    """(min_norm, sorted minimizers, nodes) of the search shortest_in_coset
    runs without LLL, written recursively over the Fraction LDL^T: the
    reference of the flat integer loop's node count and visiting order.

    Level i (from the last) has offset b = t_i + sum over j > i of
    L_ji (t_j + x_j) and tries x_i nearest-first from round_half_up(-b),
    zig-zagging towards the nearer side (up on a tie); every candidate tried
    is one node, and the level ends at its first candidate over the best
    value so far, as every later candidate is farther.
    """
    lower, diag = fraction_ldl(form)
    n = len(diag)
    t = [Fraction(v) for v in target]
    x = [0] * n
    state = {"best": None, "hits": [], "nodes": 0}

    def level(i, part):
        b = t[i] + sum(lower[j][i] * (t[j] + x[j]) for j in range(i + 1, n))
        up = _round_half_up(-b)
        down = up - 1
        while True:
            if abs(up + b) <= abs(down + b):
                cand, up = up, up + 1
            else:
                cand, down = down, down - 1
            total = part + diag[i] * (cand + b) ** 2
            state["nodes"] += 1
            best = state["best"]
            if best is not None and total > best:
                return
            x[i] = cand
            if i > 0:
                level(i - 1, total)
            elif best is None or total < best:
                state["best"], state["hits"] = total, [tuple(x)]
            elif total == best:
                state["hits"].append(tuple(x))

    if n == 0:
        return Fraction(0), [()], 0
    level(n - 1, Fraction(0))
    return state["best"], sorted(state["hits"]), state["nodes"]


def fraction_lll(gram, delta=Fraction(3, 4)):
    """(reduced, u) by LLL with Gram-Schmidt data kept in Fractions."""
    from latdefect import NotPositiveDefiniteError

    n = len(gram)
    q = [[Fraction(x) for x in row] for row in gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n <= 1:
        if n == 1 and q[0][0] <= 0:
            raise NotPositiveDefiniteError(1)
        return q, u
    mu = [[Fraction(0)] * n for _ in range(n)]
    gs = [Fraction(0)] * n
    gs[0] = q[0][0]
    if gs[0] <= 0:
        raise NotPositiveDefiniteError(1)

    def size_reduce(k, l):
        if 2 * abs(mu[k][l]) <= 1:
            return
        m = _round_half_up(mu[k][l])
        for row in u:
            row[k] -= m * row[l]
        qkk = q[k][k] - 2 * m * q[k][l] + m * m * q[l][l]
        for j in range(n):
            q[k][j] -= m * q[l][j]
        for i in range(n):
            q[i][k] -= m * q[i][l]
        q[k][k] = qkk
        mu[k][l] -= m
        for i in range(l):
            mu[k][i] -= m * mu[l][i]

    def swap_step(k, kmax):
        for row in u:
            row[k], row[k - 1] = row[k - 1], row[k]
        q[k], q[k - 1] = q[k - 1], q[k]
        for row in q:
            row[k], row[k - 1] = row[k - 1], row[k]
        for i in range(k - 1):
            mu[k][i], mu[k - 1][i] = mu[k - 1][i], mu[k][i]
        bar = mu[k][k - 1]
        big = gs[k] + bar * bar * gs[k - 1]
        mu[k][k - 1] = bar * gs[k - 1] / big
        gs[k] = gs[k - 1] * gs[k] / big
        gs[k - 1] = big
        for i in range(k + 1, kmax + 1):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - bar * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            scratch = [Fraction(0)] * (k + 1)
            for j in range(k + 1):
                val = q[k][j]
                for i in range(j):
                    val -= mu[j][i] * scratch[i]
                scratch[j] = val
                if j < k:
                    mu[k][j] = val / gs[j]
                else:
                    if val <= 0:
                        raise NotPositiveDefiniteError(k + 1)
                    gs[k] = val
        size_reduce(k, k - 1)
        if gs[k] < (delta - mu[k][k - 1] ** 2) * gs[k - 1]:
            swap_step(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return q, u


def fraction_glue(left, right):
    """(Gram, basis_change) of the glued overlattice: the glue vector from
    Fraction inverses, the basis from the Hermite form of the doubled
    generators, and the Gram matrix from a dense product."""
    from latdefect import discriminant_group
    from latdefect.linalg import hermite_row_basis

    n = left.rank + right.rank
    summed = [[0] * n for _ in range(n)]
    for offset, lat in ((0, left), (left.rank, right)):
        for i, row in enumerate(lat.gram):
            summed[offset + i][offset:offset + lat.rank] = row
    glue = []
    for lat in (left, right):
        pairings = discriminant_group(lat).generators[0].pairings
        inverse = fraction_inverse(lat.gram)
        glue += [sum(x * p for x, p in zip(row, pairings)) for row in inverse]
    assert quadratic_value(summed, glue).denominator == 1
    doubled = [[2 * int(i == j) for j in range(n)] for i in range(n)]
    doubled.append([int(2 * x) for x in glue])
    basis2 = hermite_row_basis(doubled)
    # the dense product B2 G B2^T of twice the basis is four times the Gram
    left_products = [[sum(r[i] * summed[i][j] for i in range(n)) for j in range(n)] for r in basis2]
    gram = [
        [Fraction(sum(x * y for x, y in zip(lr, s)), 4) for s in basis2] for lr in left_products
    ]
    assert all(x.denominator == 1 for row in gram for x in row)
    rows = [[Fraction(x, 2) for x in row] for row in basis2]
    return [[int(x) for x in row] for row in gram], rows


def fraction_restrict(basis_change, pairings):
    """Summand pairings of an overlattice covector, or None if not integral."""
    inverse = fraction_inverse(basis_change)
    out = [sum(x * p for x, p in zip(row, pairings)) for row in inverse]
    return None if any(x.denominator != 1 for x in out) else tuple(int(x) for x in out)


def fraction_extend(basis_change, stacked):
    """Overlattice pairings of stacked summand pairings, or None."""
    out = [sum(x * p for x, p in zip(row, stacked)) for row in basis_change]
    return None if any(x.denominator != 1 for x in out) else tuple(int(x) for x in out)


def cell_message(heights, values, weight, queries):
    """min over k of heights[k] + weight * values[k] * y, for every query y,
    one cell at a time."""
    return [
        min(h + weight * y * x for h, x in zip(heights, values)) for y in queries
    ]


def discriminant_generators_by_inverse(lat):
    """(orders, generator pairings) of L'/L from the columns of U^-1, for
    U G V = D the Smith form of the positive Gram matrix."""
    from latdefect.linalg import (
        hermite_row_basis,
        integer_matrix_inverse,
        reduce_mod_rows,
        smith_normal_form,
    )

    g = lat.positive_gram
    diag, left, _right = smith_normal_form(g)
    left_inv = integer_matrix_inverse(left)
    hnf = hermite_row_basis(g)
    orders, gens = [], []
    for i, d in enumerate(diag):
        if d > 1:
            orders.append(d)
            column = [left_inv[r][i] for r in range(lat.rank)]
            gens.append(tuple(reduce_mod_rows(column, hnf)))
    return tuple(orders), tuple(gens)


def per_pivot_hermite_row_basis(rows) -> list[list[int]]:
    """Canonical row Hermite form: pivots positive, entries above a pivot
    reduced into [0, pivot). Zero rows are dropped. Every row above a new
    pivot is reduced against it as soon as it is found."""
    work = [list(map(int, r)) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    pivot_row = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(pivot_row, len(work)) if work[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(work[i][col]), i))
            work[pivot_row], work[i0] = work[i0], work[pivot_row]
            done = True
            for i in range(pivot_row + 1, len(work)):
                if work[i][col] != 0:
                    q = work[i][col] // work[pivot_row][col]
                    work[i] = [x - q * y for x, y in zip(work[i], work[pivot_row])]
                    if work[i][col] != 0:
                        done = False
            if done:
                if work[pivot_row][col] < 0:
                    work[pivot_row] = [-x for x in work[pivot_row]]
                for i in range(pivot_row):
                    q = work[i][col] // work[pivot_row][col]
                    if q:
                        work[i] = [x - q * y for x, y in zip(work[i], work[pivot_row])]
                pivot_row += 1
                break
        if pivot_row == len(work):
            break
    return [r for r in work if any(r)]


def integer_target(problem):
    """(big, den): the target of a CosetProblem cleared to big / den, as
    coset_minima takes it."""
    from latdefect.linalg import clear_denominators

    (big,), den = clear_denominators([problem.target])
    return big, den


def forest_minimum(problem, *, node_budget=None):
    """(min_norm, nodes) of the tree dynamic program on one CosetProblem, or
    None when the nonzero off-diagonal entries of its form are no forest.

    The plan takes integer forms, so the form is scaled to one, s Q, and the
    value divided by s. Node counts do not depend on s: the domains depend
    only on (R - g) (Q^-1)_vv, for the nearest-plane value R and the value
    step g, which scaling leaves alone.
    """
    from latdefect.enumeration import forest_plan, plan_minimum
    from latdefect.linalg import clear_denominators, fraction_free_ldl

    if problem.radius is not None:
        raise ValueError("forest_minimum takes no radius")
    rows, scale = clear_denominators(problem.form)
    plan = forest_plan(rows, fraction_free_ldl(rows))
    if plan is None:
        return None
    (big,), den = clear_denominators([problem.target])
    value, nodes = plan_minimum(plan, big, den, node_budget=node_budget)
    return value / scale, nodes


def smith_spinc_keys(lat):
    """Canonical keys modulo the rows of G of the spin-c shifts, walked as
    every combination of the discriminant generators of the dense Smith
    route (discriminant_generators_by_inverse)."""
    from latdefect.linalg import hermite_row_basis, reduce_mod_rows

    orders, generators = discriminant_generators_by_inverse(lat)
    basis = hermite_row_basis(lat.positive_gram)
    keys = set()
    for coeffs in itertools.product(*(range(d) for d in orders)):
        shift = [0] * lat.rank
        for c, gen in zip(coeffs, generators):
            for i, p in enumerate(gen):
                shift[i] += c * p
        keys.add(tuple(reduce_mod_rows(shift, basis)))
    return keys


def translate_class_reps(lat):
    """{sign: pairings} of chi = diag(G) and chi + 2 * (the generator of
    discriminant_group), labelled by char_class_sign."""
    from latdefect import base_characteristic, char_class_sign, discriminant_group

    chi = base_characteristic(lat)
    gen = discriminant_group(lat).generators[0]
    shifted = chi.translate([2 * p for p in gen.pairings])
    return {char_class_sign(cov): cov.pairings for cov in (chi, shifted)}


U7 = [[0, -1, 0, 0, 0, 0, 0], [1, 0, 0, 0, -1, 0, 1], [0, 1, 0, 0, 0, -1, -1],
      [0, 0, 0, 0, 0, 0, 1], [0, 0, -1, 0, 0, 0, 0], [0, 0, 0, -1, 0, 0, 0],
      [0, 0, 0, 0, -1, 0, 0]]


def smith_row_kernel(mat) -> list[list[int]]:
    """Saturated basis of {y in Z^m : y * mat = 0}: the last m - rank rows of
    the left Smith transform."""
    from latdefect.linalg import smith_normal_form

    m = len(mat)
    if m == 0:
        return []
    diag, left, _right = smith_normal_form(mat)
    rank = sum(1 for d in diag if d != 0)
    return [list(left[i]) for i in range(rank, m)]


def smith_saturation_check(basis2, lo: int, hi: int, n: int) -> None:
    """Raise GlueFailureError unless the overlattice meets the rational span
    of coordinates [lo, hi) exactly in the block lattice there.

    basis2 is twice the overlattice basis, in direct-sum coordinates. The
    integer combinations of its rows that vanish outside the block come from
    an integer kernel; halved, they must be integral and span a block of
    determinant +-1.
    """
    from latdefect import GlueFailureError
    from latdefect.linalg import adjugate

    outside = [[row[j] for j in range(n) if not lo <= j < hi] for row in basis2]
    kernel = smith_row_kernel(outside)
    if len(kernel) != hi - lo:
        raise GlueFailureError("intersection with a summand has wrong rank")
    block = []
    for y in kernel:
        coords = [sum(y[i] * basis2[i][j] for i in range(len(y))) for j in range(n)]
        if any(coords[j] != 0 for j in range(n) if not lo <= j < hi):
            raise GlueFailureError("kernel vector leaves the summand span")
        inside = coords[lo:hi]
        if any(c % 2 for c in inside):
            raise GlueFailureError("intersection vector is not integral")
        block.append([c // 2 for c in inside])
    if adjugate(block)[1] not in (1, -1):
        raise GlueFailureError("intersection with a summand is a proper sublattice")


def _recording(original, sizes):
    """original, wrapped to append the size of each call to sizes."""
    params = list(inspect.signature(original).parameters)
    index = next(i for i, p in enumerate(params) if p not in ("self", "factor"))

    def counted(*args, **kwargs):
        sizes.append(len(args[index] if index < len(args) else kwargs[params[index]]))
        return original(*args, **kwargs)

    return counted


def count_calls(monkeypatch, names):
    """Wrap each named function ("module.function" or "module.Class.method"
    under latdefect) at every package binding, recording the size of each
    call: the length of its first argument other than self or a factor.
    ValueError unless the name is a function defined in that module, so a
    re-export or a misspelt name cannot leave a count empty. Returns
    ({name: [sizes]}, {name: number of bindings wrapped})."""
    calls, bindings = {}, {}
    for name in names:
        module_name, *path = name.split(".")
        module = importlib.import_module(f"latdefect.{module_name}")
        owner = getattr(module, path[0], None) if len(path) > 1 else module
        original = getattr(owner, path[-1], None)
        if not (
            inspect.isfunction(original)
            and original.__module__ == module.__name__
            and original.__qualname__ == ".".join(path)
        ):
            raise ValueError(f"{name} is not a function defined in {module.__name__}")
        if owner is module:
            packages = [m for key, m in sys.modules.items() if key.split(".")[0] == "latdefect"]
            targets = [(m, key) for m in packages for key, value in vars(m).items() if value is original]
        else:  # a method: its class holds the one binding
            targets = [(owner, path[-1])]
        counted = _recording(original, calls.setdefault(name, []))
        for target, attribute in targets:
            monkeypatch.setattr(target, attribute, counted)
        bindings[name] = len(targets)
    return calls, bindings


def lens_d(p: int, q: int, i: int) -> Fraction:
    """d(-L(p, q), i) by Ozsvath-Szabo's recursion (arXiv math/0110170,
    Prop. 4.8), with d = 0 on L(1, q)."""
    if p == 1:
        return Fraction(0)
    q %= p
    return Fraction(p * q - (2 * i + 1 - p - q) ** 2, 4 * p * q) - lens_d(q, p % q, i % q)


def tau_canonical_d(data) -> Fraction:
    """d of the canonical spin-c structure of a Seifert space with e(Y) < 0,
    by Nemethi's tau-function (arXiv math/0310083): (K^2 + s) / 4 - 2 min tau.

    With m_j = ceil(1/r_j), the normalized center is e0 = central - sum m_j,
    and each leg with 1/r_j != m_j has omega_j / alpha_j = m_j - 1/r_j; k
    counts those legs. tau(0) = 0 and
    tau(n + 1) - tau(n) = 1 - e0 n - sum_j ceil(n omega_j / alpha_j).
    The step is at least 1 - k + n |e(Y)|, so the minimum is reached by
    n = floor((k - 1) / |e(Y)|) + 1. K pairs each vertex v of the canonical
    plumbing to -G_vv - 2, and K^2 = -K^T adj(P) K / det P for P = -G: only
    the plumbing is shared with the tree dynamic program.
    """
    from latdefect import canonical_plumbing
    from latdefect.linalg import adjugate

    inverses = [1 / r for r in data.legs]
    e0 = data.central - sum(math.ceil(x) for x in inverses)
    slopes = [math.ceil(x) - x for x in inverses if x != math.ceil(x)]
    last = math.floor((len(slopes) - 1) / -data.euler_number) + 1
    tau = lowest = 0
    for n in range(last):
        tau += 1 - e0 * n - sum(math.ceil(n * w) for w in slopes)
        lowest = min(lowest, tau)
    gram = canonical_plumbing(data).lattice.gram
    canonical = [-row[v] - 2 for v, row in enumerate(gram)]
    adj, det = adjugate([[-x for x in row] for row in gram])
    adj_k = [sum(a * c for a, c in zip(row, canonical)) for row in adj]
    square = Fraction(-sum(c * y for c, y in zip(canonical, adj_k)), det)
    return (square + len(gram)) / 4 - 2 * lowest


def torus_knot_v(r, s):
    """Ni-Wu's V_j of the torus knot T(r, s), j >= 0, from its Alexander
    polynomial (t^{rs} - 1)(t - 1) / ((t^r - 1)(t^s - 1)) = sum of a_k t^k,
    symmetrized: V_j = sum over k >= 1 of k a_{j+k}."""
    coeffs = [0] * (r * s + 2)
    coeffs[0], coeffs[1], coeffs[r * s], coeffs[r * s + 1] = 1, -1, -1, 1
    for m in (r, s):  # exact division by t^m - 1, from the lowest degree
        quotient = []
        for k in range(len(coeffs) - m):
            quotient.append((quotient[k - m] if k >= m else 0) - coeffs[k])
        coeffs = quotient
    genus = (r - 1) * (s - 1) // 2
    return lambda j: sum(k * coeffs[genus + j + k] for k in range(1, genus - j + 1))


def tracer_layers() -> dict[str, tuple[str, ...]]:
    """The LAYERS table of bench/tracer.py, read as a literal."""
    tracer = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no LAYERS")


def examples(n):
    """Hypothesis settings for n examples, with no deadline and no too_slow
    health check."""
    return settings(max_examples=n, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def conjugated(rng, base):
    """base written in a random unimodular basis drawn from rng."""
    return conjugate_lattice(base, random_unimodular(rng, base.rank))


def seeded_conjugate(seed, bases):
    """One of the zero-argument constructors bases, drawn by
    random.Random(seed), built and conjugated by a basis drawn from the same
    rng."""
    rng = random.Random(seed)
    return conjugated(rng, rng.choice(bases)())


def a1_plus_e8():
    return direct_sum(a1_lattice(), e8_lattice())


def identity_plus_e8(k):
    return direct_sum(identity_lattice(k), e8_lattice())


def bimodular_bases(ranks):
    """Zero-argument constructors of the det-2 bases the tests conjugate, in
    drawing order: A1, E7, A1 + E8, then the diagonal det-2 lattice of each
    rank in ranks."""
    return [a1_lattice, e7_lattice, a1_plus_e8] + [partial(diagonal_bimodular_lattice, k) for k in ranks]


# seed -> a det-2 lattice, or one of the elkies suite's bases (E8, I_1..I_8,
# I_1 + E8, I_2 + E8), in a random basis
conjugated_bimodular = partial(seeded_conjugate, bases=bimodular_bases(range(1, 6)))
conjugated_unimodular = partial(
    seeded_conjugate,
    bases=[e8_lattice]
    + [partial(identity_lattice, m) for m in range(1, 9)]
    + [partial(identity_plus_e8, k) for k in (1, 2)],
)

# one constructor per kind of base, called with the rng, which draws the
# rank of a diagonal or identity kind: {bimodular: kinds}
BASE_KINDS = {
    True: [
        lambda rng: diagonal_bimodular_lattice(rng.randint(1, 7)),
        lambda rng: e7_lattice(),
        lambda rng: a1_plus_e8(),
    ],
    False: [
        lambda rng: identity_lattice(rng.randint(1, 7)),
        lambda rng: e8_lattice(),
        lambda rng: identity_plus_e8(rng.randint(1, 2)),
    ],
}


@st.composite
def symmetric_matrices(draw, rational=False):
    """Rank 1-10: B^T B + k I for a small integer B and k in 0-3 (definite,
    or singular at k = 0), or its negation, or an arbitrary symmetric
    matrix; scaled by a rational and shifted on the diagonal when asked."""
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        b = [[draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]
        shift = draw(st.integers(0, 3))
        sign = draw(st.sampled_from([1, -1]))
        rows = [
            [sign * (sum(b[k][i] * b[k][j] for k in range(n)) + shift * (i == j)) for j in range(n)]
            for i in range(n)
        ]
    else:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = draw(st.integers(-4, 12))
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = draw(st.integers(-4, 4))
    if rational:
        scale = Fraction(draw(st.integers(1, 7)), draw(st.integers(1, 6)))
        shift = Fraction(draw(st.integers(0, 3)), draw(st.integers(1, 5)))
        rows = [[x * scale + (shift if i == j else 0) for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    return rows


@st.composite
def forest_problems(draw):
    """A strictly diagonally dominant form on a random forest with shuffled
    vertex labels, and a target with denominators 1-3. Components may be
    single vertices, off-diagonal entries take both signs, and the form is
    in ints or in rationals with mixed denominators (the plan takes the
    form scaled to integers)."""
    n = draw(st.integers(1, 8))
    rational = draw(st.booleans())
    label = draw(st.permutations(range(n)))
    form = [[0] * n for _ in range(n)]

    def entry(values):
        num = draw(st.sampled_from(values))
        return Fraction(num, draw(st.sampled_from([1, 2, 3, 6]))) if rational else num

    for v in range(1, n):
        parent = draw(st.integers(-1, v - 1))  # -1 starts a new component
        if parent >= 0:
            a, b = label[v], label[parent]
            form[a][b] = form[b][a] = entry([-3, -2, -1, 1, 2, 3])
    for v in range(n):
        form[v][v] = sum(abs(x) for x in form[v]) + entry([1, 2, 3, 4])
    target = [Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 3]))) for _ in range(n)]
    return CosetProblem(form, target)


@st.composite
def conjugated_lattices(draw, max_rank, max_entry, max_det=None):
    """Random positive definite Gram matrices (random_spd_gram), at most
    max_det in determinant when given, in a random basis, negated into
    negative definite ones half the time."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    lat = validate_lattice(random_spd_gram(rng, max_rank=max_rank, max_entry=max_entry))
    if max_det is not None:
        assume(abs(lat.determinant) <= max_det)
    lat = conjugated(rng, lat)
    if draw(st.booleans()):
        lat = validate_lattice([[-x for x in row] for row in lat.gram])
    return lat


def seifert_tree(central, legs):
    """The plumbing tree of the Seifert space with this central weight and
    legs sign * num / den for each (sign, num, den), or None when that space
    is no rational homology sphere."""
    try:
        data = SeifertData(central, [Fraction(s * a, b) for s, a, b in legs])
    except NotRationalHomologySphereError:
        return None
    return _seifert_tree(data)[0]


def main_example_lattice():
    """The rank-32 plumbing lattice of Y(2; 15/13, 17/3, 23/22)."""
    data = SeifertData(2, (Fraction(15, 13), Fraction(17, 3), Fraction(23, 22)))
    return _seifert_tree(data)[0].lattice


def seifert_legs(max_num, max_den):
    """(central, legs) for seifert_tree: centers and leg signs of both kinds,
    so that most legs are shifted into the center before they are
    expanded."""
    legs = st.tuples(st.sampled_from([1, -1]), st.integers(1, max_num), st.integers(1, max_den))
    return st.tuples(st.integers(-3, 3), st.lists(legs, min_size=1, max_size=3))


@st.composite
def plumbing_lattices(draw):
    """The plumbing lattice of a Seifert space with legs up to 7/1 or 1/6
    and at most 300 spin-c classes; seeded_plumbing_lattice draws the same
    family from an rng."""
    tree = seifert_tree(*draw(seifert_legs(7, 6)))
    assume(tree is not None and abs(tree.lattice.determinant) <= 300)
    return tree.lattice


def seeded_plumbing_lattice(rng):
    """The plumbing lattice of a Seifert space with 1-3 legs up to 7/1 or
    1/6 and at most 300 spin-c classes, drawn from rng."""
    while True:
        legs = [
            (rng.choice([1, -1]), rng.randint(1, 7), rng.randint(1, 6))
            for _ in range(rng.randint(1, 3))
        ]
        tree = seifert_tree(rng.randint(-3, 3), legs)
        if tree is not None and abs(tree.lattice.determinant) <= 300:
            return tree.lattice
