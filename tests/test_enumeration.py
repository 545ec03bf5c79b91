"""Coset minimization: goldens, oracle agreement, budgets, reduction, and the
serial search as the only one (no entry point takes threads). Only
shortest_in_coset lets the caller choose the LLL step. The value step of a
coset is checked against the values of a box, and the value and listing
searches, which stop at that step and search symmetric cosets by halves,
against the exhaustive box oracles. The forest plan is checked against the
dense fraction-free adjugate, and the tree dynamic program (forest_minimum,
the plan and plan_minimum of one CosetProblem, kept in tests/helpers.py)
against the branch-and-bound search on random weighted forests and on every
spin-c class of small Seifert plumbings. Node budgets are exact for the tree
DP and for every mode of the search.
"""

import hashlib
import inspect
import itertools
import random
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given

import latdefect
from latdefect import (
    BudgetExhaustedError,
    CosetProblem,
    FormatError,
    NotIntegerError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    RadiusEmptyError,
    ToolkitError,
    defects,
    enumerate_in_coset,
    max_char_square,
    min_char_norm,
    shortest_in_coset,
    spinc_classes,
    validate_lattice,
    verify_suite,
)
from latdefect.cli import main
from latdefect.defects import _class_problem, _class_target
from latdefect.enumeration import _value_step, coset_minima, forest_plan, plan_minimum
from latdefect.errors import EXIT_USAGE
from latdefect.formats import gram_to_json
from latdefect.linalg import (
    adjugate,
    clear_denominators,
    fraction_free_ldl,
    ldl_decomposition,
    mat_mul,
    mat_vec,
    transpose,
)
from latdefect.reduction import lll_reduce_gram

from helpers import (
    box_minimum,
    box_points_within,
    examples,
    forest_minimum,
    forest_problems,
    integer_target,
    quadratic_value,
    random_spd_gram,
    random_target,
    seifert_legs,
    seifert_tree,
)


def test_problem_validation():
    with pytest.raises(NotSymmetricError):
        CosetProblem([[1, 2], [3, 1]], [0, 0])
    with pytest.raises(ValueError):
        CosetProblem([[1]], [0, 0])
    for form, target, radius in (
        ([[1]], [0.5], None), ([[1]], ["1/2"], None), ([[1]], [True], None),
        ([[1.0]], [0], None), ([[1]], [0], 0.5), ([[1]], [0], "1"),
        ([[0.5]], [0], None), ([[True]], [0], None), ([["1"]], [0], None),
    ):
        with pytest.raises(FormatError, match="is not an int or Fraction$"):
            CosetProblem(form, target, radius)
        if (target, radius) == ([0], None):
            with pytest.raises(FormatError, match="is not an int or Fraction$"):
                coset_minima(form, [([0], 1)])
    # coset_minima takes a bare form and integer targets, checked the same way
    with pytest.raises(NotSymmetricError):
        coset_minima([[1, 2], [3, 1]], [([0, 0], 1)])
    with pytest.raises(FormatError):
        coset_minima([[2, 1]], [([1, 0], 2)])
    # and plan_minimum checks its target by the same rule; it used to truncate
    # a long target, divide by den = 0 and take min() of no values at den < 0
    form = [[2, 1, 0], [1, 2, 1], [0, 1, 3]]
    plan = forest_plan(form, fraction_free_ldl(form))
    malformed = (ValueError, "^a target needs 3 ints over an int den >= 1, got ")
    not_integer = (NotIntegerError, "is not an integer")
    for big, den, (error, match) in (
        ([1, 1, 1, 1], 2, malformed), ([1, 1], 2, malformed), ([1, 1, 1], 0, malformed),
        ([1, 1, 1], -2, malformed), ([1, 1, 1], Fraction(2), malformed),
        ([1, 1, 1], True, malformed), ([Fraction(1, 2), 1, 1], 2, not_integer),
        ([0.5, 1, 1], 2, not_integer), ([True, 1, 1], 2, not_integer),
    ):
        with pytest.raises(error, match=match):
            plan_minimum(plan, big, den)
        with pytest.raises(error, match=match):
            coset_minima(form, [(big, den)])
    assert plan_minimum(plan, [Fraction(2), 1, 1], 2)[0] == coset_minima(form, [([2, 1, 1], 2)])[0][0]


def test_problem_rejects_indefinite_on_solve():
    with pytest.raises(NotPositiveDefiniteError) as info:
        shortest_in_coset(CosetProblem([[1, 2], [2, 1]], [0, 0]))
    assert info.value.pivot_index == 2


def test_half_shifted_square():
    result = shortest_in_coset(CosetProblem([[1, 0], [0, 1]], [Fraction(1, 2), 0]))
    assert result.min_norm == Fraction(1, 4)
    assert result.minimizers == ((-1, 0), (0, 0))


def test_zero_target():
    result = shortest_in_coset(CosetProblem([[1, 0], [0, 1]], [0, 0]))
    assert result.min_norm == 0
    assert result.minimizers == ((0, 0),)


def test_rank_zero():
    # the one point of Z^0 has value 0, so it lies within a radius >= 0 only
    result = shortest_in_coset(CosetProblem([], []))
    assert result.min_norm == 0
    assert result.minimizers == ((),)
    assert coset_minima([], [([], 1)]) == [(0, 0)]
    with pytest.raises(ValueError):
        enumerate_in_coset(CosetProblem([], []))
    assert enumerate_in_coset(CosetProblem([], [], radius=0)) == ([((), 0)], 0)
    for radius in (-1, Fraction(-1, 2)):
        with pytest.raises(RadiusEmptyError):
            shortest_in_coset(CosetProblem([], [], radius=radius))
        assert enumerate_in_coset(CosetProblem([], [], radius=radius)) == ([], 0)


def test_rational_cholesky_golden():
    # the search factors the Gram matrix by linalg.ldl_decomposition; a
    # non-symmetric one is refused when the problem is built
    lower, diag = ldl_decomposition([[2, 1], [1, 2]])
    assert diag == [Fraction(2), Fraction(3, 2)]
    assert lower[1][0] == Fraction(1, 2)
    with pytest.raises(NotSymmetricError):
        CosetProblem([[2, 1], [0, 2]], [0, 0])


def test_radius_modes():
    problem = CosetProblem([[2]], [Fraction(1, 2)], radius=Fraction(1, 2))
    result = shortest_in_coset(problem)
    assert result.min_norm == Fraction(1, 2)
    with pytest.raises(RadiusEmptyError) as info:
        shortest_in_coset(CosetProblem([[2]], [Fraction(1, 2)], radius=Fraction(1, 8)))
    assert info.value.exit_code == 2


def test_enumerate_requires_radius():
    with pytest.raises(ValueError):
        enumerate_in_coset(CosetProblem([[1]], [0]))


def half_target(rng, n):
    """A target in (1/2) Z^n: its coset is symmetric, x -> -x maps it to itself."""
    return [Fraction(rng.randint(-3, 3), 2) for _ in range(n)]


def test_enumerate_in_coset_matches_box():
    # on a symmetric coset the listing offers only the up side of its top
    # level and mirrors each hit off it; rank 1 and integral targets included
    rng = random.Random(11)
    cases = [([[2]], [Fraction(1, 2)], 3), ([[1]], [0], 4), ([[3]], [Fraction(-5, 2)], 1)]
    for k in range(80):
        gram = random_spd_gram(rng, max_rank=3)
        target = half_target(rng, len(gram)) if k % 2 else random_target(rng, len(gram))
        cases.append((gram, target, Fraction(rng.randint(0, 12), rng.randint(1, 3))))
    for gram, target, radius in cases:
        got, _nodes = enumerate_in_coset(CosetProblem(gram, target, radius=radius))
        assert got == box_points_within(gram, target, radius)


def rational_gcd(values):
    scale = lcm(*(Fraction(v).denominator for v in values))
    return Fraction(gcd(*(int(v * scale) for v in values)), scale)


def test_value_step_is_the_gcd_of_the_value_differences():
    # every x in a box around 0 that holds each e_i, 2 e_i and e_i + e_j
    # moves the value by a multiple of g, and those moves have gcd g
    rng = random.Random(16)
    for k in range(60):
        form = random_spd_gram(rng, max_rank=3)
        if k % 2:
            form = [[Fraction(a, 3) for a in row] for row in form]
        target = half_target(rng, len(form)) if k % 3 == 0 else random_target(rng, len(form))
        big, den = integer_target(CosetProblem(form, target))
        g = Fraction(*_value_step(form)(big, den))
        base = quadratic_value(form, target)
        moves = [
            quadratic_value(form, [t + a for t, a in zip(target, x)]) - base
            for x in itertools.product(range(-1, 3), repeat=len(form))
        ]
        assert all((move / g).denominator == 1 for move in moves)
        assert rational_gcd(moves) == g


def test_oracle_agreement_including_reduction():
    # shortest_in_coset with and without LLL, and coset_minima, which stops
    # at the value step and searches symmetric cosets by halves; with the
    # same LLL step coset_minima visits no more nodes
    rng = random.Random(12)
    for k in range(80):
        gram = random_spd_gram(rng)
        target = half_target(rng, len(gram)) if k % 4 > 1 else random_target(rng, len(gram))
        expect_min, expect_args = box_minimum(gram, target)
        problem = CosetProblem(gram, target)
        result = shortest_in_coset(problem, reduce=bool(k % 2))
        assert result.min_norm == expect_min
        # the full minimizer list: no x != 0 has both x and -x in it
        assert list(result.minimizers) == expect_args
        [(value, nodes)] = coset_minima(gram, [integer_target(problem)])
        assert value == expect_min
        if k % 2:
            assert nodes <= result.nodes_visited


def test_no_entry_point_takes_threads(capsys):
    searches = (
        shortest_in_coset, coset_minima, enumerate_in_coset,
        min_char_norm, defects, max_char_square, verify_suite,
    )
    assert [f.__name__ for f in searches if "threads" in inspect.signature(f).parameters] == []
    assert main(["--threads", "2", "verify", "roundtrip", "--trials", "1"]) == EXIT_USAGE
    assert "--threads" in capsys.readouterr().err


def test_only_shortest_in_coset_takes_reduce(capsys, tmp_path):
    # minimum searches always reduce and listings never do; only the search
    # with minimizers can skip it, for a second route without LLL
    takes = []
    for name in latdefect.__all__:
        obj = getattr(latdefect, name)
        if callable(obj) and not isinstance(obj, type):
            if "reduce" in inspect.signature(obj).parameters:
                takes.append(name)
    assert takes == ["shortest_in_coset"]
    assert inspect.signature(shortest_in_coset).parameters["reduce"].default is True
    gram = tmp_path / "i3.json"
    gram.write_text(gram_to_json([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert main(["charmin", "--gram", str(gram), "--reduce"]) == EXIT_USAGE
    assert "--reduce" in capsys.readouterr().err


def test_lll_preserves_values():
    rng = random.Random(13)
    for _ in range(25):
        gram = random_spd_gram(rng, max_rank=4)
        reduced, u = lll_reduce_gram(gram)
        back = mat_mul(mat_mul(transpose(u), gram), u)
        assert [[Fraction(x) for x in row] for row in back] == reduced
        assert adjugate(u)[1] in (1, -1)


def test_reduction_changes_nodes_not_values():
    # skewed planar form: reduction saves work but never changes the answer
    gram = [[901, 30], [30, 1]]
    target = [Fraction(1, 2), Fraction(1, 3)]
    plain = shortest_in_coset(CosetProblem(gram, target), reduce=False)
    reduced = shortest_in_coset(CosetProblem(gram, target))
    assert plain.min_norm == reduced.min_norm
    assert sorted(plain.minimizers) == sorted(reduced.minimizers)
    assert reduced.nodes_visited < plain.nodes_visited


def test_minimizer_values_are_attained():
    rng = random.Random(14)
    for _ in range(20):
        gram = random_spd_gram(rng, max_rank=3)
        target = random_target(rng, len(gram))
        result = shortest_in_coset(CosetProblem(gram, target))
        for x in result.minimizers:
            shifted = [t + xi for t, xi in zip([Fraction(v) for v in target], x)]
            assert quadratic_value(gram, shifted) == result.min_norm


def test_suite_search_nodes_and_minima_are_pinned(monkeypatch):
    # a gate for search changes: per mode, the searches and node total of the
    # five verify suites (100 trials, default rank bound, seed 1), and a
    # digest of each search's mode, minimum and sorted hits, in order. Each
    # level ends at its first candidate over the bound, value mode stops at
    # the value step, and value and collect mode search symmetric cosets by
    # halves; the digest does not depend on any of these.
    enumeration = sys.modules["latdefect.enumeration"]
    search = enumeration._search
    log = []

    def recorded(prepared, big, den, radius, mode, *budget_and_step):
        out = search(prepared, big, den, radius, mode, *budget_and_step)
        log.append((mode, out[0], sorted(out[1]), out[2]))
        return out

    monkeypatch.setattr(enumeration, "_search", recorded)
    for name in ("elkies", "bimodular", "congruence", "glue", "roundtrip"):
        verify_suite(name, trials=100, seed=1)
    totals = {}
    for mode, _best, _hits, nodes in log:
        count, total = totals.get(mode, (0, 0))
        totals[mode] = (count + 1, total + nodes)
    assert totals == {"value": (258, 3526), "collect": (142, 19714)}
    text = repr([(mode, best, hits) for mode, best, hits, _nodes in log])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "60b6d45a2872ee1f7af4030ec90ebf6f6eeb0ac35532a3097a5f33418343a1ae"
    )


@examples(150)
@given(forest_problems())
@example(CosetProblem([[Fraction(5)]], [0]))  # rank 1
@example(CosetProblem([[Fraction(2), 0, 0], [0, Fraction(3), 0], [0, 0, Fraction(5, 2)]], [0, 0, 0]))  # no edges
def test_plan_matches_the_dense_adjugate(problem):
    rows, _scale = clear_denominators(problem.form)
    adj, det = adjugate(rows)
    plan = forest_plan(rows, fraction_free_ldl(rows))
    assert plan.determinant == det
    assert plan.adjugate_diagonal == tuple(adj[v][v] for v in range(len(adj)))


A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


def test_plan_determinant_must_match_the_ldl():
    lam, minors, scale = fraction_free_ldl(A3)
    corrupted = (lam, minors[:-1] + [minors[-1] + 1], scale)
    with pytest.raises(ToolkitError, match="forest minors multiply to 4"):
        forest_plan(A3, corrupted)


@examples(40)
@given(forest_problems())
def test_forest_minimum_matches_branch_and_bound(problem):
    value, nodes = forest_minimum(problem)
    assert value == shortest_in_coset(problem).min_norm
    assert nodes >= problem.rank


def test_forest_minimum_small_cases():
    # rank 1: (1/3 + x)^2 * 5 is smallest at x = 0
    assert forest_minimum(CosetProblem([[5]], [Fraction(1, 3)])) == (Fraction(5, 9), 1)
    # two components, halves and thirds mixed
    problem = CosetProblem([[2, 0], [0, 3]], [Fraction(1, 2), Fraction(2, 3)])
    assert forest_minimum(problem)[0] == Fraction(1, 2) + Fraction(1, 3)
    assert forest_minimum(CosetProblem([], [])) == (0, 0)


def test_forest_minimum_rejects_cycles_and_radius():
    triangle = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert forest_minimum(CosetProblem(triangle, [0, 0, 0])) is None
    assert validate_lattice([[-x for x in row] for row in triangle]).forest_plan is None
    with pytest.raises(ValueError):
        forest_minimum(CosetProblem([[1]], [0], radius=1))


@examples(40)
@given(seifert_legs(5, 4))
@example((-2, [(-1, 3, 1), (-1, 5, 2), (-1, 6, 1)]))
def test_max_char_square_matches_search_on_every_class(raw):
    tree = seifert_tree(*raw)
    assume(tree is not None and tree.rank <= 10)
    lat = latdefect.gram(tree)
    assume(abs(lat.determinant) <= 100)
    for cls in spinc_classes(lat):
        rep = cls.representative
        # the lattice's plan runs the dynamic program of the class problem's
        # own plan, node for node
        assert plan_minimum(lat.forest_plan, *_class_target(rep)) == forest_minimum(_class_problem(rep))
        # z = G^-1 p of the positive form -G, from the dense adjugate of G
        adj = mat_vec(adjugate(lat.gram)[0], list(rep.pairings))
        target = [Fraction(-x, 2 * lat.determinant) for x in adj]
        search = shortest_in_coset(CosetProblem(lat.positive_gram, target))
        assert max_char_square(lat, rep) == -4 * search.min_norm


def budget_cases():
    path = CosetProblem(
        [[3, -1, 0, 0], [-1, 3, 1, 0], [0, 1, 4, -2], [0, 0, -2, 5]],
        [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3), Fraction(1, 6)],
    )
    cube = CosetProblem([[1 if i == j else 0 for j in range(6)] for i in range(6)], [Fraction(1, 2)] * 6)
    return [path, cube]


# budgets that every search and the tree DP reject before their first node
# (check_node_budget); every int of at least 1 is an exact budget
BAD_BUDGETS = (0, "3", 1.5, True)
BAD_BUDGET = "^node_budget must be None or an int of at least 1, got"


@pytest.mark.parametrize("problem", budget_cases())
def test_forest_budget_is_exact(problem):
    value, nodes = forest_minimum(problem)
    assert forest_minimum(problem, node_budget=nodes) == (value, nodes)
    for budget in (1, nodes - 1):
        with pytest.raises(BudgetExhaustedError) as info:
            forest_minimum(problem, node_budget=budget)
        assert info.value.nodes == nodes and info.value.budget == budget
    for budget in BAD_BUDGETS:
        with pytest.raises(ValueError, match=BAD_BUDGET):
            forest_minimum(problem, node_budget=budget)


@pytest.mark.parametrize("problem", budget_cases())
def test_search_budget_is_exact(problem):
    # the minimizer, value-only and collect modes: (run under a budget,
    # unbudgeted result, node count)
    full = shortest_in_coset(problem)
    targets = [integer_target(problem)]
    [value] = coset_minima(problem.form, targets)
    assert value[0] == full.min_norm and value[1] <= full.nodes_visited
    within = CosetProblem(problem.form, problem.target, radius=full.min_norm + 1)
    points, collected = enumerate_in_coset(within)
    # three different budgets: the cube, a symmetric coset, finds its minimum
    # in 12 nodes and lists its 64 points in 105, against 189 for minimizers
    assert len(points) > 1 and len({full.nodes_visited, value[1], collected}) == 3
    searches = [
        (lambda budget: shortest_in_coset(problem, node_budget=budget), full, full.nodes_visited),
        (lambda budget: coset_minima(problem.form, targets, node_budget=budget)[0], value, value[1]),
        (lambda budget: enumerate_in_coset(within, node_budget=budget), (points, collected), collected),
    ]
    for run, result, nodes in searches:
        assert run(nodes) == result
        for budget in (1, nodes - 1):
            with pytest.raises(BudgetExhaustedError) as info:
                run(budget)
            assert info.value.nodes == budget + 1 and info.value.budget == budget
        for budget in BAD_BUDGETS:
            with pytest.raises(ValueError, match=BAD_BUDGET):
                run(budget)


def test_coset_minima_gives_each_target_its_own_budget():
    path = budget_cases()[0]
    other = CosetProblem(path.form, [Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6), Fraction(1, 2)])
    targets = [integer_target(path), integer_target(other)]
    expected = coset_minima(path.form, targets[:1]) + coset_minima(path.form, targets[1:])
    small, large = sorted(nodes for _value, nodes in expected)
    assert 0 < small < large
    assert coset_minima(path.form, targets, node_budget=large) == expected
    with pytest.raises(BudgetExhaustedError) as info:
        coset_minima(path.form, targets, node_budget=large - 1)
    assert info.value.nodes == large
