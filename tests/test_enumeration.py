"""Coset minimization: goldens, oracle agreement, budgets, reduction, and the
serial search as the only one (no entry point takes threads). Only
shortest_in_coset lets the caller choose the LLL step. The forest plan is
checked against the dense fraction-free adjugate."""

import hashlib
import inspect
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given

import latdefect
from latdefect import (
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
    verify_suite,
)
from latdefect.cli import main
from latdefect.enumeration import coset_minima, forest_plan, plan_minimum
from latdefect.errors import EXIT_USAGE
from latdefect.formats import gram_to_json
from latdefect.linalg import (
    adjugate,
    clear_denominators,
    fraction_free_ldl,
    ldl_decomposition,
    mat_mul,
    transpose,
)
from latdefect.reduction import lll_reduce_gram

from helpers import (
    box_minimum,
    box_points_within,
    examples,
    forest_problems,
    quadratic_value,
    random_spd_gram,
    random_target,
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


def test_enumerate_in_coset_matches_box():
    rng = random.Random(11)
    for _ in range(40):
        gram = random_spd_gram(rng, max_rank=3)
        target = random_target(rng, len(gram))
        radius = Fraction(rng.randint(1, 12), rng.randint(1, 3))
        expected = box_points_within(gram, target, radius)
        got, _nodes = enumerate_in_coset(CosetProblem(gram, target, radius=radius))
        assert got == expected


def test_oracle_agreement_including_reduction():
    rng = random.Random(12)
    for k in range(60):
        gram = random_spd_gram(rng)
        target = random_target(rng, len(gram))
        expect_min, expect_args = box_minimum(gram, target)
        problem = CosetProblem(gram, target)
        result = shortest_in_coset(problem, reduce=bool(k % 2))
        assert result.min_norm == expect_min
        # the full minimizer list: no x != 0 has both x and -x in it
        assert list(result.minimizers) == expect_args


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
    # level ends at its first candidate over the bound; when each side of the
    # zig-zag closed on its own, value mode took 55,920 nodes and collect
    # mode 45,347, with the same digest.
    enumeration = sys.modules["latdefect.enumeration"]
    search = enumeration._search
    log = []

    def recorded(prepared, big, den, radius, mode, node_budget):
        out = search(prepared, big, den, radius, mode, node_budget)
        log.append((mode, out[0], sorted(out[1]), out[2]))
        return out

    monkeypatch.setattr(enumeration, "_search", recorded)
    for name in ("elkies", "bimodular", "congruence", "glue", "roundtrip"):
        verify_suite(name, trials=100, seed=1)
    totals = {}
    for mode, _best, _hits, nodes in log:
        count, total = totals.get(mode, (0, 0))
        totals[mode] = (count + 1, total + nodes)
    assert totals == {"value": (258, 40694), "collect": (142, 30468)}
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
