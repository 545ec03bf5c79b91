"""The dense-lattice path with each elimination done once per lattice.

The covector solve is checked against the dense Bareiss adjugate of the
positive form and against sign |det| G^-1 in Fractions, the shared reduction
and factorization behind defects (and its tree dynamic program on forests)
against one preparation per class, the unimodular defect on G against the
"any" search on G^-1, and gluing's closed forms in the glue parity against
the Smith-form saturation test and the Hermite and Fraction routes kept in
tests/helpers.py. The guards on which kernels these questions run are rows
of the work table (tests/test_work.py).
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from latdefect import (
    CharClassSign,
    Covector,
    GlueFailureError,
    NotIntegerError,
    ToolkitError,
    a1_lattice,
    base_characteristic,
    characteristic_class_reps,
    conjugate_lattice,
    defects,
    diagonal_bimodular_lattice,
    dual_gram,
    e7_lattice,
    e8_lattice,
    extend_covector,
    glue_overlattice,
    identity_lattice,
    min_char_norm,
    restrict_covector,
    validate_lattice,
)
from latdefect.defects import _any_problem, _class_problem
from latdefect.enumeration import coset_minima, shortest_in_coset
from latdefect.linalg import adjugate, hermite_row_basis, mat_vec

from helpers import (
    GLUE,
    U7,
    conjugated_bimodular,
    conjugated_lattices,
    conjugated_unimodular,
    examples,
    fraction_extend,
    fraction_glue,
    fraction_restrict,
    integer_target,
    quadratic_value,
    smith_saturation_check,
)


@examples(60)
@given(conjugated_lattices(max_rank=7, max_entry=6), st.integers(0, 10**6))
@example(validate_lattice([[7]]), 0)
@example(validate_lattice([[-7]]), 0)
def test_solve_matches_the_dense_adjugate(lat, seed):
    # solve(e_i) is column i of adj P = det P P^-1 for the positive form
    # P = sign G, so adj P = sign |det| G^-1, and solve(v) = adj P v
    n = lat.rank
    adj, det = adjugate(lat.positive_gram)
    assert det == abs(lat.determinant)
    columns = [lat.solve([int(i == j) for j in range(n)]) for i in range(n)]
    assert [list(row) for row in zip(*columns)] == adj
    assert all(type(x) is int for column in columns for x in column)
    assert adj == [[lat.sign * det * x for x in row] for row in dual_gram(lat)]
    rng = random.Random(seed)
    for _ in range(3):
        vec = [rng.randint(-9, 9) for _ in range(n)]
        assert lat.solve(vec) == mat_vec(adj, vec)


def test_solve_rejects_a_non_integer_entry_and_a_wrong_length():
    # one check for a forest and for any other lattice, both solved on the
    # factor; an integral Fraction passes as its integer
    forest = a1_lattice()
    dense = conjugate_lattice(e7_lattice(), U7)
    assert forest.forest_plan is not None and dense.forest_plan is None
    assert forest.solve([Fraction(4, 2)]) == forest.solve([2]) == [2]
    for lat in (forest, dense):
        n = lat.rank
        for bad in (Fraction(1, 2), 0.9, "1", True):
            with pytest.raises(NotIntegerError):
                lat.solve([bad] + [0] * (n - 1))
        for length in (n - 1, n + 1):
            with pytest.raises(ValueError, match=f"length {length}, the lattice has rank {n}"):
                lat.solve([1] * length)


def test_solve_on_glued_overlattices():
    for seed in range(20):
        over = glue_overlattice(conjugated_bimodular(2 * seed), conjugated_bimodular(2 * seed + 1))
        adj, det = adjugate(over.gram)
        assert det == over.determinant == 1
        chi = base_characteristic(over)
        assert over.solve(chi.pairings) == mat_vec(adj, list(chi.pairings))
        assert chi.positive_norm == quadratic_value(adj, chi.pairings)


def test_integer_adjugate_checks_the_determinant():
    # the Gram matrix of A1 + A1 has determinant 4, not the 2 claimed here
    wrong = replace(validate_lattice([[2, 0], [0, 2]]), determinant=2)
    with pytest.raises(ToolkitError, match="determinant 4"):
        wrong.solve([1, 0])


def test_solve_checks_every_division():
    # solve runs on the factor, here of the triangle [[2, 1, 1], [1, 2, 1],
    # [1, 1, 2]]: lam = [[], [1], [1, 1]], minors [1, 2, 3, 4]; with
    # lam[2][0] = 2 the solve meets -5 / 2
    lat = validate_lattice([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert lat.solve([1, 0, 0]) == [3, -1, -1]
    lam, minors, scale = lat.factor
    tampered = replace(lat, factor=([[], [1], [2, 1]], minors, scale))
    with pytest.raises(ToolkitError, match="-5 is not divisible by 2"):
        tampered.solve([1, 0, 0])


@st.composite
def glue_vectors(draw):
    """Doubled glue vectors of index 2: each half odd somewhere, or one half
    made even (the other then odd somewhere)."""
    halves = []
    for _ in range(2):
        n = draw(st.integers(1, 6))
        half = [draw(st.integers(-5, 5)) for _ in range(n)]
        if all(x % 2 == 0 for x in half):
            half[draw(st.integers(0, n - 1))] += 1
        halves.append(half)
    even = draw(st.sampled_from([None, 0, 1]))
    if even is not None:
        halves[even] = [2 * x for x in halves[even]]
    return halves[0] + halves[1], len(halves[0])


def passes(check, *args) -> bool:
    try:
        check(*args)
    except GlueFailureError:
        return False
    return True


def hermite_doubled_basis(glue2):
    """The Hermite form of 2 Z^n and glue2, the route glue_overlattice's
    closed form replaces."""
    n = len(glue2)
    return hermite_row_basis([[2 * (i == j) for j in range(n)] for i in range(n)] + [glue2])


def assert_parity_matches_smith(glue2, n_left):
    basis2 = hermite_doubled_basis(glue2)
    n = len(glue2)
    smith = passes(smith_saturation_check, basis2, 0, n_left, n) and passes(
        smith_saturation_check, basis2, n_left, n, n
    )
    assert passes(GLUE._check_summand_spans, glue2, n_left) == smith
    return smith


@examples(60)
@given(glue_vectors())
def test_parity_test_matches_smith_saturation_on_planted_glue_vectors(case):
    glue2, n_left = case
    saturated = assert_parity_matches_smith(glue2, n_left)
    even_half = all(x % 2 == 0 for x in glue2[:n_left]) or all(x % 2 == 0 for x in glue2[n_left:])
    assert saturated == (not even_half)


@examples(60)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_parity_test_matches_smith_saturation_on_bimodular_pairs(seed_left, seed_right):
    left, right = conjugated_bimodular(seed_left), conjugated_bimodular(seed_right)
    glue2 = GLUE._doubled_glue_coordinates(left) + GLUE._doubled_glue_coordinates(right)
    assert assert_parity_matches_smith(glue2, left.rank)


def test_closed_form_doubled_basis_is_the_hermite_form():
    for seed in range(50):
        left, right = conjugated_bimodular(2 * seed), conjugated_bimodular(2 * seed + 1)
        glue2 = GLUE._doubled_glue_coordinates(left) + GLUE._doubled_glue_coordinates(right)
        over = glue_overlattice(left, right)
        assert over.glue == tuple(x % 2 for x in glue2)
        assert [[2 * x for x in row] for row in over.basis_change] == hermite_doubled_basis(glue2)


def test_glue_matches_the_fraction_route_on_300_seeded_pairs():
    # Gram, basis, restriction and extension against tests/helpers.py's
    # Hermite form and Fraction inverse, on the same pairs every run
    extended_to_none = 0
    for seed in range(300):
        left, right = conjugated_bimodular(2 * seed), conjugated_bimodular(2 * seed + 1)
        over = glue_overlattice(left, right)
        gram, basis_change = fraction_glue(left, right)
        assert [list(row) for row in over.gram] == gram
        assert [list(row) for row in over.basis_change] == basis_change
        rng = random.Random(seed)
        covectors = [base_characteristic(over)] + [
            Covector(tuple(rng.randint(-5, 5) for _ in range(over.rank)), over) for _ in range(2)
        ]
        for cov in covectors:
            parts = [restrict_covector(cov, side) for side in ("left", "right")]
            expected = fraction_restrict(basis_change, cov.pairings)
            assert parts[0].pairings + parts[1].pairings == expected
            assert extend_covector(over, *parts) == cov
        for _ in range(3):
            lcov = Covector(tuple(rng.randint(-4, 4) for _ in range(left.rank)), left)
            rcov = Covector(tuple(rng.randint(-4, 4) for _ in range(right.rank)), right)
            extended = extend_covector(over, lcov, rcov)
            expected = fraction_extend(basis_change, lcov.pairings + rcov.pairings)
            assert (None if extended is None else extended.pairings) == expected
            extended_to_none += extended is None
    assert 0 < extended_to_none < 900


def test_glue_with_an_even_glue_vector_fails_on_the_determinant(monkeypatch):
    # g = (2, 2) on A1 + A1 adjoins nothing: M = Z^2 has index 1, det 4
    monkeypatch.setattr(GLUE, "_doubled_glue_coordinates", lambda lat: [2])
    with pytest.raises(GlueFailureError, match="determinant is 4"):
        glue_overlattice(a1_lattice(), a1_lattice())


def test_glued_doubled_basis_is_triangular_with_one_unit_pivot():
    over = glue_overlattice(e7_lattice(), a1_lattice())
    basis2 = [[2 * x for x in row] for row in over.basis_change]
    n = len(basis2)
    assert all(x.denominator == 1 for row in basis2 for x in row)
    assert all(basis2[i][j] == 0 for i in range(n) for j in range(i))
    assert sorted(basis2[i][i] for i in range(n)) == [1] + [2] * (n - 1)
    k = over.glue.index(1)
    assert basis2[k] == list(over.glue)


# forests, which defects searches by the tree dynamic program
TREE_LATTICES = (
    [a1_lattice(), e7_lattice(), e8_lattice()]
    + [diagonal_bimodular_lattice(n) for n in range(1, 9)]
    + [identity_lattice(m) for m in range(1, 11)]
)


@pytest.mark.parametrize("reduce", [False, True])
def test_shared_preparation_matches_one_preparation_per_class(reduce):
    """Each class searched on its own, through the minimizer-recording
    shortest_in_coset, finds the minimum that the shared preparation does;
    with the same LLL step, which the shared preparation always takes, the
    shared search, which stops at the value step and halves symmetric
    cosets, visits no more nodes. defects finds the same minima, by the tree
    dynamic program on the forests."""
    assert all(lat.forest_plan is not None for lat in TREE_LATTICES)
    for lat in TREE_LATTICES + [conjugated_bimodular(seed) for seed in range(50)]:
        n = lat.rank
        if abs(lat.determinant) == 1:
            problems = [_any_problem(lat)]
        else:
            reps = characteristic_class_reps(lat)
            problems = [
                _class_problem(reps[s])
                for s in (CharClassSign.PLUS, CharClassSign.MINUS)
            ]
        separate = []
        for problem in problems:
            result = shortest_in_coset(problem, reduce=reduce)
            separate.append((result.min_norm, result.nodes_visited))
        shared = coset_minima(problems[0].form, [integer_target(p) for p in problems])
        assert [value for value, _nodes in shared] == [value for value, _nodes in separate]
        if reduce:
            assert all(a <= b for (_v, a), (_w, b) in zip(shared, separate))
        pair = defects(lat)
        values = [Fraction(4 * value - n, 4) for value, _nodes in separate]
        if len(values) == 1:  # a unimodular lattice reports its defect twice
            values *= 2
        assert [pair.d_plus, pair.d_minus] == values


def test_unimodular_defect_on_the_gram_matches_the_any_search_on_its_inverse():
    # defects searches the one class of diag(G) on the integral G;
    # min_char_norm(sign="any") searches all characteristic pairings on G^-1
    for seed in range(60):
        lat = conjugated_unimodular(seed)
        square = min_char_norm(lat, "any").min_norm
        assert defects(lat).d_plus == (square - lat.rank) / 4
