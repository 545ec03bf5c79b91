"""Tree dynamic program: oracle agreement and exact node budgets.

forest_minimum (the plan and plan_minimum of one CosetProblem, kept in
tests/helpers.py) is checked against the branch-and-bound search on random
weighted forests and on every spin-c class of small Seifert plumbings. Node
budgets are exact for the tree DP and for every mode of the search.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given

from latdefect import (
    BudgetExhaustedError,
    CosetProblem,
    gram,
    max_char_square,
    shortest_in_coset,
    spinc_classes,
    validate_lattice,
)
from latdefect.defects import _class_problem, _class_target
from latdefect.enumeration import coset_minima, enumerate_in_coset, plan_minimum
from latdefect.linalg import adjugate, mat_vec

from helpers import (
    examples,
    forest_minimum,
    forest_problems,
    integer_target,
    seifert_legs,
    seifert_tree,
)


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
    lat = gram(tree)
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
    assert value == (full.min_norm, full.nodes_visited)
    within = CosetProblem(problem.form, problem.target, radius=full.min_norm + 1)
    points, collected = enumerate_in_coset(within)
    assert len(points) > 1 and collected > full.nodes_visited
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
    other = CosetProblem(path.form, [Fraction(-1, 3), 0, Fraction(1, 2), Fraction(5, 6)])
    targets = [integer_target(path), integer_target(other)]
    expected = coset_minima(path.form, targets[:1]) + coset_minima(path.form, targets[1:])
    small, large = sorted(nodes for _value, nodes in expected)
    assert 0 < small < large
    assert coset_minima(path.form, targets, node_budget=large) == expected
    with pytest.raises(BudgetExhaustedError) as info:
        coset_minima(path.form, targets, node_budget=large - 1)
    assert info.value.nodes == large
