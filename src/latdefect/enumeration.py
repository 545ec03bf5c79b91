"""Branch-and-bound search for shortest vectors in affine cosets of Z^n.

The problem solved here: given a symmetric positive definite rational form Q
and a rational target t, minimize (t + x)^T Q (t + x) over integer vectors x.
Levels are eliminated through an exact LDL^T factorization and explored
depth-first, each level visiting integer candidates in nearest-first zig-zag
order until the first over the bound; the first full descent therefore
reproduces the nearest-plane rounding of -t and seeds the pruning radius. All arithmetic is exact: a target
enters the search as integers big / den, and _scale clears the denominators
of the factor once per search, so the inner loop works on plain integers.
An integral form is kept in int from CosetProblem through LLL to the
fraction-free factor, so it is never wrapped in Fractions and cleared again.

There is one entry point per problem shape: shortest_in_coset reports the
minimum with every minimizer; coset_minima finds the same minimum, for
callers that need only minimum values, on integer targets (big, den) that
share one form, which it reduces and factors once; enumerate_in_coset lists
every point within a radius. The two entry points that take a CosetProblem
clear its target to (big, den) once. Integral LLL conjugates the problem by
a unimodular matrix: it changes node counts, never results. Both minimum
searches apply it to every form of rank > 1; the listing, whose radius is
fixed, runs faster without it. The search is serial, so node counts, and
whether a node budget suffices, are the same on every run.

Two properties of the input let coset_minima and the listing prove less,
and shortest_in_coset, which keeps every tied minimizer, takes neither.
Every value of a coset differs from every other by a multiple of its value
step g (_value_step), so once coset_minima holds a value best it searches
only for values up to best - g; on a class target g is at least 2 in
quarter-square units, the mod-8 congruence of characteristic squares. A
coset with 2 t in Z^n is symmetric: x and -x - 2t have equal values, so
the minimum search and the listing offer only the nonnegative side of the
top level, and the listing adds each mirror.

When Q is an integer form whose off-diagonal support is a forest (every
plumbing tree is one), the exact minimum value needs no search: the
objective is a sum of vertex and edge terms, so a leaf-to-root dynamic
program over integer-scaled coordinates solves it. Its work is split in
two. forest_plan gathers once per form what depends on Q alone: the order,
integer weights and the diagonal of the adjugate, by elimination on the tree
in O(n) integer steps. It runs no dense elimination: the caller passes the
fraction-free LDL, whose nearest-plane constants the plan keeps for every
target's bound, and a lattice passes the one its validation made.
plan_minimum then takes one integer target over a denominator, and computes
each message as a lower-envelope query in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, isqrt, lcm
from typing import NamedTuple

from .errors import (
    BudgetExhaustedError,
    RadiusEmptyError,
    ToolkitError,
)
from .linalg import (
    clear_denominators,
    exact_quotient,
    integer_entries,
    integer_matrix_inverse,
    ldl_decomposition,
    mat_vec,
    require_rational,
    require_symmetric,
)
from .reduction import lll_reduce_gram


def _form_rows(form):
    """The rows of a search's form as given, once every entry is an int or a
    Fraction (FormatError) and the form is symmetric."""
    rows = tuple(tuple(require_rational(x, "form entry") for x in row) for row in form)
    require_symmetric(rows)
    return rows


@dataclass(frozen=True)
class CosetProblem:
    """Minimize (target + x)^T form (target + x) over x in Z^n.

    form must be square (FormatError otherwise), symmetric and positive
    definite (checked when factored); radius, when given, is an inclusive
    upper bound on accepted values. Entries and radius must be ints or
    Fractions (FormatError otherwise). Entries are kept as given, so an
    integral form reaches the search's integer kernel without a round trip
    through Fractions; an int equals, and hashes as, its Fraction.
    """

    form: tuple[tuple[int | Fraction, ...], ...]
    target: tuple[int | Fraction, ...]
    radius: Fraction | None = None

    def __init__(self, form, target, radius=None):
        rows = _form_rows(form)
        tgt = tuple(require_rational(x, "target entry") for x in target)
        if len(tgt) != len(rows):
            raise ValueError("target length does not match form rank")
        object.__setattr__(self, "form", rows)
        object.__setattr__(self, "target", tgt)
        if radius is not None:
            radius = Fraction(require_rational(radius, "radius"))
        object.__setattr__(self, "radius", radius)

    @property
    def rank(self) -> int:
        return len(self.form)


@dataclass(frozen=True)
class EnumerationResult:
    min_norm: Fraction
    minimizers: tuple[tuple[int, ...], ...]
    nodes_visited: int


def _scale(cols, diag, big, den):
    """(scales, consts, scols, coeff, value_scale): the denominator-cleared
    levels of one factored search for the target big / den.

    At level i the offset base_i = target_i + sum_j L_ji (target_j + x_j) is
    an affine function of the integer choices x_j, so a per-level scale s_i
    (the lcm of the relevant denominators) makes s_i * base_i an integer for
    every x: s_i base_i = consts_i + sum of c x_j over (j, c) in scols_i.
    Values are tracked as integer multiples of 1 / value_scale, with
    value_scale chosen so each level cost d_i * u^2 scales to coeff_i * U^2
    for U = s_i * u. The search then runs entirely on integers, with every
    comparison equal to its unscaled counterpart. The scales are computed in
    integers too: with column i of L as C / cs,
    den cs const_i = cs big_i + sum_j C_j big_j. A factor common to big and
    den leaves every scale unchanged.
    """
    scales = []
    consts = []
    scols = []
    for i, pairs in enumerate(cols):
        col_scale = lcm(*(c.denominator for _j, c in pairs))
        col = [(j, c.numerator * (col_scale // c.denominator)) for j, c in pairs]
        whole = den * col_scale
        k = col_scale * big[i]  # whole * const
        for j, c in col:
            k += c * big[j]
        s = lcm(col_scale, whole // gcd(k, whole))
        scales.append(s)
        consts.append(k * s // whole)
        scols.append(tuple((j, c * (s // col_scale)) for j, c in col))
    value_scale = lcm(*(s * s * d.denominator for s, d in zip(scales, diag)))
    coeff = [
        d.numerator * (value_scale // (s * s * d.denominator))
        for d, s in zip(diag, scales)
    ]
    return scales, consts, scols, coeff, value_scale


def check_node_budget(node_budget) -> None:
    """ValueError unless node_budget is None or an int of at least 1: the one
    budget rule, checked at every public entry point and by the searches and
    the tree DP before their first node."""
    if node_budget is not None and (type(node_budget) is not int or node_budget < 1):
        raise ValueError(f"node_budget must be None or an int of at least 1, got {node_budget!r}")


def _integer_target(big, den, rank: int) -> tuple[int, ...]:
    """big as ints by the one integer rule (integer_entries), and ValueError
    unless it has rank entries over an int den >= 1: the one target rule of
    plan_minimum and coset_minima."""
    big = integer_entries(big)
    if len(big) != rank or type(den) is not int or den < 1:
        raise ValueError(f"a target needs {rank} ints over an int den >= 1, got {len(big)} over {den!r}")
    return big


class _Prepared(NamedTuple):
    """What every search on one form shares: the LLL basis change unimod and
    its integer inverse (None when the form was not reduced), and the LDL
    columns and pivots of the form in that basis."""

    unimod: list | None
    inverse: list | None
    cols: list
    diag: list


def _prepare(form, reduce: bool) -> _Prepared:
    """LLL-reduce (when asked and the rank exceeds 1) and factor one form;
    cols[i] lists the nonzero below-diagonal entries (j, L_ji) of column i."""
    unimod = inverse = None
    if reduce and len(form) > 1:
        form, unimod = lll_reduce_gram(form)
        inverse = integer_matrix_inverse(unimod)
    lower, diag = ldl_decomposition(form)
    n = len(diag)
    cols = [
        [(j, lower[j][i]) for j in range(i + 1, n) if lower[j][i] != 0]
        for i in range(n)
    ]
    return _Prepared(unimod, inverse, cols, diag)


def _value_step(form):
    """The value step of the cosets of one form: a function of a target
    (big, den) giving (G, W) such that Q(t + x) - Q(t) lies in (G / W) Z for
    every integer x, and G / W is the gcd of those differences.

    G / W is the gcd of 2 (Q t)_i + Q_ii and of 2 Q_ij for i <= j, since
    Q_ii x_i^2 = Q_ii x_i + Q_ii x_i (x_i - 1) and x_i (x_i - 1) is even.
    With rows, s = clear_denominators(form) and t = big / den, that is
    gcd(2 (rows big)_i + den rows_ii, 2 den rows_ij) / (s den), in integers;
    the part from the form alone is taken once.
    """
    rows, s = clear_denominators(form)
    pairs = 2 * gcd(*(a for i, row in enumerate(rows) for a in row[i:]))
    diag = [row[i] for i, row in enumerate(rows)]

    def step(big, den):
        return gcd(pairs * den, *(2 * a + den * d for a, d in zip(mat_vec(rows, big), diag))), s * den

    return step


def _search(prepared: _Prepared, big, den: int, radius, mode: str, node_budget, step=(0, 1)):
    """(best, hits, nodes) of one search for the target big / den (integers,
    den > 0) on a prepared form; best is None when nothing is within the
    inclusive radius (None for no bound). The target is mapped into the
    reduced basis, searched over levels n-1..0, and the hits are mapped back.

    mode "collect" records every point within the radius with its value,
    "shrink" the minimizers at the shrinking minimum, and "value" nothing but
    the minimum. step = (G, W) says every value of the coset lies in
    Q(t) + (G / W) Z; a hit at best lowers the limit to the next such value
    below it, best - G / W. Shrink mode keeps ties, so it passes (0, 1).
    On a symmetric coset (2 big = 0 mod den), x and -x - 2 big / den have
    equal values and opposite top-level offsets, so value and collect mode
    offer only the up side (offset >= 0) of level n-1, and collect mode
    adds the mirror of each hit whose top offset is nonzero. Every
    candidate tried is one node, and BudgetExhaustedError is raised once
    there are more than node_budget.
    """
    check_node_budget(node_budget)
    unimod = prepared.unimod
    if unimod is not None:
        big = mat_vec(prepared.inverse, big)
    scales, consts, scols, coeff, value_scale = _scale(prepared.cols, prepared.diag, big, den)
    n = len(scales)
    # values, limit and best are in 1 / value_scale units; limit is the
    # lesser of the radius and the best value so far, less the step
    limit = None if radius is None else floor(radius * value_scale)
    if n == 0:  # the empty point alone, of value 0
        if limit is not None and limit < 0:
            return None, [], 0
        return Fraction(0), [((), Fraction(0))] if mode == "collect" else [()], 0
    drop = -(-step[0] * value_scale // step[1])
    # the level that offers only its up side; -1 (none) unless symmetric
    half = n - 1 if mode != "shrink" and all(2 * b % den == 0 for b in big) else -1
    if half >= 0:
        shift = [2 * b // den for b in big]
    best = None
    hits: list = []
    nodes = 0
    x = [0] * n
    part = [0] * n
    sbase = [0] * n
    up = [0] * n
    down = [0] * n
    i = n - 1
    b = sbase[i] = consts[i]  # the last level depends on no choice
    up[i] = (scales[i] - 2 * b) // (2 * scales[i])
    down[i] = up[i] - 1
    while True:
        s, b = scales[i], sbase[i]
        u, v = s * up[i] + b, s * down[i] + b
        if i == half or abs(u) <= abs(v):
            cand = up[i]
            up[i] += 1
        else:
            cand, u = down[i], v
            down[i] -= 1
        total = part[i] + coeff[i] * u * u
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExhaustedError(nodes, node_budget)
        if limit is not None and total > limit:
            # candidates come nearest-first, so every later one is over too
            i += 1
            if i == n:
                break
            continue
        x[i] = cand
        if i == 0:
            if mode == "collect":
                value = Fraction(total, value_scale)
                hits.append((tuple(x), value))
                if half >= 0 and scales[half] * x[half] + consts[half]:
                    hits.append((tuple(-a - c for a, c in zip(x, shift)), value))
            elif best is None or total < best:
                best = total
                limit = best - drop
                if mode == "shrink":
                    hits = [tuple(x)]
            elif mode == "shrink":  # total == best, as best caps the limit
                hits.append(tuple(x))
            continue
        i -= 1
        part[i] = total
        b = consts[i]
        for j, c in scols[i]:
            b += c * x[j]
        sbase[i] = b
        up[i] = (scales[i] - 2 * b) // (2 * scales[i])
        down[i] = up[i] - 1
    if unimod is not None:  # listings are never reduced, so hits are bare points
        hits = [tuple(mat_vec(unimod, y)) for y in hits]
    return None if best is None else Fraction(best, value_scale), hits, nodes


def shortest_in_coset(
    problem: CosetProblem,
    *,
    reduce: bool = True,
    node_budget: int | None = None,
) -> EnumerationResult:
    """Exact minimum of (target + x)^T form (target + x) with all minimizers.

    reduce=False skips the LLL step, for a second route. Minimizers are the
    integer offset vectors x, sorted lexicographically. No x != 0 has both x
    and -x among them: Q(t + x) + Q(t - x) = 2 Q(t) + 2 Q(x) exceeds twice
    the minimum, since Q(t) is at least the minimum and Q(x) > 0. Raises
    RadiusEmptyError when a radius was given and no coset point lies within
    it; BudgetExhaustedError when the node budget runs out first.
    """
    (big,), den = clear_denominators([problem.target])
    best, hits, nodes = _search(
        _prepare(problem.form, reduce), big, den, problem.radius, "shrink", node_budget
    )
    if best is None:
        raise RadiusEmptyError(
            f"no coset point with value <= {problem.radius}"
        )
    return EnumerationResult(
        min_norm=best,
        minimizers=tuple(sorted(hits)),
        nodes_visited=nodes,
    )


def coset_minima(
    form,
    targets,
    *,
    node_budget: int | None = None,
) -> list[tuple[Fraction, int]]:
    """(min_norm, nodes) of each target (big, den), the coset big / den + Z^n
    of integers big and den > 0, on one symmetric positive definite form.

    Each search finds the minimum that shortest_in_coset finds on that
    target, in at most as many nodes, and records no minimizer: it stops
    once no value below best - g is left, for the value step g of the
    target (_value_step). The form is reduced and factored once, and each
    target is searched on that preparation, with its own node_budget. The
    form is checked as a CosetProblem's is, and each target as plan_minimum
    checks it (_integer_target).
    """
    form = _form_rows(form)
    prepared = _prepare(form, True)
    step = _value_step(form)
    out = []
    for big, den in targets:
        big = _integer_target(big, den, len(form))
        best, _hits, nodes = _search(prepared, big, den, None, "value", node_budget, step(big, den))
        out.append((best, nodes))
    return out


def enumerate_in_coset(
    problem: CosetProblem,
    *,
    node_budget: int | None = None,
) -> tuple[list[tuple[tuple[int, ...], Fraction]], int]:
    """(points, nodes): every coset offset x with value <= problem.radius,
    each with its value and sorted by x, and the nodes the search visited.

    Both x and -x are listed when both lie within the radius.
    """
    if problem.radius is None:
        raise ValueError("enumerate_in_coset requires a radius")
    (big,), den = clear_denominators([problem.target])
    _best, hits, nodes = _search(
        _prepare(problem.form, False), big, den, problem.radius, "collect", node_budget
    )
    return sorted(hits), nodes


def _forest_order(form):
    """(order, parent) for the graph of nonzero off-diagonal entries.

    order lists every vertex after all of its children; parent is -1 at the
    root of each component. Returns None when the graph has a cycle.
    """
    n = len(form)
    parent = [-1] * n
    seen = [False] * n
    order = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for w in range(n):
                if w == v or w == parent[v] or form[v][w] == 0:
                    continue
                if seen[w]:
                    return None
                seen[w] = True
                parent[w] = v
                stack.append(w)
    order.reverse()
    return order, parent


def _nearest_plane_constants(factor) -> tuple:
    """(levels, M): what _nearest_plane needs of factor = fraction_free_ldl(form)
    = (lam, d, s) for any target: level i, from the last, as (i, d[i+1], the
    nonzero (j, lam[j][i]) for j > i, common // (d[i] d[i+1])), for
    common = lcm(d[i] d[i+1]), and M = common s."""
    lam, minors, scale = factor
    n = len(lam)
    common = lcm(*(minors[i] * minors[i + 1] for i in range(n)))
    levels = tuple(
        (i, minors[i + 1], tuple((j, lam[j][i]) for j in range(i + 1, n) if lam[j][i]),
         common // (minors[i] * minors[i + 1]))
        for i in range(n - 1, -1, -1)
    )
    return levels, common * scale


def _nearest_plane(constants, big, den: int) -> tuple[int, int]:
    """(N, M) with N / M = R den^2, for R the value of the nearest-plane
    rounding of -target = -big / den, in integers only.

    With W = den (target + x), starting from big, level i (from the last)
    has offset B_i / S_i for S_i = d[i+1] den and
    B_i = d[i+1] W_i + sum over j > i of lam[j][i] W_j, rounds
    x_i = round_half_up(-B_i / S_i), and costs U_i^2 / (d[i] d[i+1] s den^2)
    with U_i = S_i x_i + B_i, all summed over M.
    """
    levels, reach_den = constants
    w = list(big)
    total = 0
    for i, d, col, weight in levels:
        b = d * w[i]
        for j, c in col:
            b += c * w[j]
        s = d * den
        x = (s - 2 * b) // (2 * s)
        w[i] += den * x
        u = s * x + b
        total += u * u * weight
    return total, reach_den


class ForestPlan(NamedTuple):
    """What the tree dynamic program needs of one forest-shaped integer form Q.

    Everything here depends on Q only, so a lattice builds it once for all of
    its spin-c classes. order lists every vertex after its children, and
    parent[v] is -1 at a root. vertex[v] = q_vv and edge[v] = 2 q_vp for
    p = parent[v] (0 at a root). determinant = det Q, and
    adjugate_diagonal[v] = det(Q - v) is
    the v-th diagonal entry of adj Q = det Q * Q^-1, so (Q^-1)_vv =
    adjugate_diagonal[v] / determinant. nearest_plane holds the
    _nearest_plane_constants of fraction_free_ldl(Q), as the caller made it,
    for the bound of every target.
    A NamedTuple rather than a dataclass: a frozen dataclass of this many
    fields costs about 1.5 ms of import time.
    """

    order: tuple[int, ...]
    parent: tuple[int, ...]
    vertex: tuple[int, ...]
    edge: tuple[int, ...]
    determinant: int
    adjugate_diagonal: tuple[int, ...]
    nearest_plane: tuple


def forest_plan(form, factor) -> ForestPlan | None:
    """The ForestPlan of a symmetric positive definite integer form with its
    fraction_free_ldl factor, or None when the nonzero off-diagonal entries
    of the form do not make a forest.

    A forest has no fill-in under leaf-to-root elimination, so the plan
    runs no dense elimination of its own. Cutting the edge from v to its
    parent p splits a component C into two parts, so
    det C = det(C1) det(C2) - q_vp^2 det(C1 - v) det(C2 - p). Attaching the
    children one at a time by this rule gives, leaf to root and without a
    division, minors[v], the determinant of the subtree rooted at v, and
    products[v], the product of minors[w] over the children w of v. One
    root-to-leaf pass then reroots: with U_v the determinant of C without
    the subtree of v and F_v that of C without the subtree of v and without
    p, F_v = U_p products[p] / minors[v] and
    U_v = (det C + q_vp^2 products[v] F_v) / minors[v], and
    det(Q - v) = products[v] U_v det Q / det C. Every division is checked to
    be exact, and det Q, the product of the root minors, must equal the last
    minor of the factor, which reached the determinant by dense elimination;
    ToolkitError is raised otherwise.
    """
    shape = _forest_order(form)
    if shape is None:
        return None
    order, parent = shape
    n = len(form)
    vertex = [form[v][v] for v in range(n)]
    link = [form[v][p] if p >= 0 else 0 for v, p in enumerate(parent)]
    minors = list(vertex)
    products = [1] * n
    det = 1
    for v in order:
        p = parent[v]
        if p < 0:
            det *= minors[v]
            continue
        minors[p] = minors[p] * minors[v] - link[v] ** 2 * products[p] * products[v]
        products[p] *= minors[v]
    if det != factor[1][n]:
        raise ToolkitError(
            f"forest minors multiply to {det}, the LDL determinant is {factor[1][n]}"
        )
    component = [0] * n
    up = [1] * n
    adj = [0] * n
    for v in reversed(order):
        p = parent[v]
        if p < 0:
            component[v] = minors[v]
        else:
            component[v] = component[p]
            without_p = up[p] * exact_quotient(products[p], minors[v])
            up[v] = exact_quotient(component[v] + link[v] ** 2 * products[v] * without_p, minors[v])
        adj[v] = products[v] * up[v] * exact_quotient(det, component[v])
    return ForestPlan(
        order=tuple(order),
        parent=tuple(parent),
        vertex=tuple(vertex),
        edge=tuple(2 * a for a in link),
        determinant=det,
        adjugate_diagonal=tuple(adj),
        nearest_plane=_nearest_plane_constants(factor),
    )


def _message(heights, values, weight, queries) -> list[int]:
    """[min over k of heights[k] + weight * values[k] * y for y in queries].

    values and queries ascend and weight is nonzero, so the lines
    heights[k] + (weight values[k]) y have distinct slopes. Taken in order of
    falling slope, the lines that are lowest somewhere form a lower envelope
    on which the lowest line at y moves forward as y grows, so one pass over
    the lines and one over the queries suffice. A line is dropped when its
    two neighbours cross no later than it meets the earlier one; both tests
    are integer cross-multiplications.
    """
    pairs = zip(values, heights) if weight < 0 else zip(reversed(values), reversed(heights))
    slopes: list[int] = []
    inter: list[int] = []
    for y, h in pairs:
        a = weight * y
        while len(slopes) > 1:
            a1, b1, a2, b2 = slopes[-2], inter[-2], slopes[-1], inter[-1]
            if (h - b1) * (a1 - a2) > (b2 - b1) * (a1 - a):
                break
            slopes.pop()
            inter.pop()
        slopes.append(a)
        inter.append(h)
    out = []
    k, last = 0, len(slopes) - 1
    for y in queries:
        best = inter[k] + slopes[k] * y
        while k < last:
            nxt = inter[k + 1] + slopes[k + 1] * y
            if nxt > best:
                break
            best = nxt
            k += 1
        out.append(best)
    return out


def plan_minimum(
    plan: ForestPlan, big, den: int, *, node_budget: int | None = None
) -> tuple[Fraction, int]:
    """(min_norm, nodes): the exact minimum of (t + x)^T Q (t + x) over integer
    x, for the integer form Q of the plan and the target t = big / den
    (den > 0).

    Y = den (t + x) is an integer vector congruent to big mod den, and
    den^2 times the value is the integer quadratic
    sum of vertex[v] Y_v^2 plus sum of edge[v] Y_v Y_p. The nearest-plane
    value R (_nearest_plane) bounds every coordinate by
    |Y_v| <= isqrt(floor(R (Q^-1)_vv den^2)) (Cauchy-Schwarz), with
    (Q^-1)_vv = adjugate_diagonal[v] / determinant. Messages then
    pass from the leaves to each root:
    m_v(Y_p) = min over Y_v of [h_v(Y_v) + edge[v] Y_v Y_p], where h_v is the
    vertex term plus the messages of the children of v; each is a lower
    envelope query (_message). nodes counts one per line offered (a value of
    a non-root vertex), one per parent value queried and one per root value;
    node_budget is checked against that exact total before any message.
    """
    check_node_budget(node_budget)
    big = _integer_target(big, den, len(plan.vertex))
    reach, reach_den = _nearest_plane(plan.nearest_plane, big, den)
    whole = reach_den * plan.determinant
    domains = []
    for c, q in zip(big, plan.adjugate_diagonal):
        b = isqrt(reach * q // whole)
        domains.append(range(c - den * ((b + c) // den), b + 1, den))
    parent = plan.parent
    nodes = sum(
        len(domains[v]) + (len(domains[p]) if p >= 0 else 0)
        for v, p in enumerate(parent)
    )
    if node_budget is not None and nodes > node_budget:
        raise BudgetExhaustedError(nodes, node_budget)
    h = [[a * y * y for y in dom] for a, dom in zip(plan.vertex, domains)]
    total = 0
    for v in plan.order:
        p = parent[v]
        if p < 0:
            total += min(h[v])
            continue
        hp = h[p]
        for k, m in enumerate(_message(h[v], domains[v], plan.edge[v], domains[p])):
            hp[k] += m
    return Fraction(total, den * den), nodes

