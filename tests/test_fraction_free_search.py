"""The fraction-free search path against the Fraction routes it replaced.

Integral LLL and the fraction-free LDL^T are checked on hypothesis-drawn Gram
matrices against the Gram-Schmidt LLL and LDL^T over Fractions kept in
tests/helpers.py; the value-only searches behind defects and the tree DP's
integer nearest-plane bound are checked against the routes that build
minimizers or work in Fractions. The integer search loop is checked node for
node against a recursive search over Fractions, and searches on int Gram
matrices, which stay ints down to the integer kernel, against their Fraction
twins. Node counts of min_char_norm are pinned, with each search level ending
at its first candidate over the bound.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from latdefect import (
    CharClassSign,
    CongruenceViolationError,
    CosetProblem,
    NotPositiveDefiniteError,
    a1_lattice,
    conjugate_lattice,
    defects,
    diagonal_bimodular_lattice,
    direct_sum,
    e7_lattice,
    e8_lattice,
    enumerate_in_coset,
    identity_lattice,
    min_char_norm,
    shortest_in_coset,
    spinc_classes,
)
from latdefect.defects import _any_problem, _class_problem, _class_target, characteristic_class_reps
from latdefect.enumeration import _nearest_plane, _nearest_plane_constants, coset_minima, plan_minimum
from latdefect.linalg import clear_denominators, fraction_free_ldl, ldl_decomposition, mat_vec
from latdefect.reduction import lll_reduce_gram

from helpers import (
    BASE_KINDS,
    DEFECTS,
    U7,
    babai_value,
    conjugated,
    examples,
    fraction_inverse,
    fraction_ldl,
    fraction_lll,
    integer_target,
    outcome,
    random_spd_gram,
    random_target,
    reference_search,
    seeded_plumbing_lattice,
    symmetric_matrices,
)


@examples(80)
@given(st.one_of(symmetric_matrices(), symmetric_matrices(rational=True)))
@example([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
def test_integral_lll_matches_fraction_lll(gram):
    # an integral Gram matrix comes back in ints, any other in Fractions,
    # and the argument is left alone
    before = [row[:] for row in gram]
    got = outcome(lll_reduce_gram, gram)
    assert got == outcome(fraction_lll, gram)
    assert gram == before
    if not isinstance(got[0], str):
        integral = all(Fraction(x).denominator == 1 for row in gram for x in row)
        assert all(type(x) is (int if integral else Fraction) for row in got[0] for x in row)


@examples(80)
@given(st.one_of(symmetric_matrices(), symmetric_matrices(rational=True)))
def test_ldl_decomposition_matches_fraction_ldl(gram):
    assert outcome(ldl_decomposition, gram) == outcome(fraction_ldl, gram)


def test_lll_and_ldl_name_the_first_bad_minor():
    for gram, index in (
        ([[2, 2, 0], [2, 1, 0], [0, 0, 1]], 2),  # leading minors 2, 2*1 - 4 < 0
        ([[1, 2], [2, 1]], 2),  # leading minors 1, -3
        ([[1, 1], [1, 1]], 2),  # leading minors 1, 0
        ([[0]], 1),
    ):
        for fn in (lll_reduce_gram, ldl_decomposition, fraction_lll, fraction_ldl):
            with pytest.raises(NotPositiveDefiniteError) as info:
                fn(gram)
            assert info.value.pivot_index == index


def test_fraction_free_ldl_is_integral():
    lam, minors, scale = fraction_free_ldl([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 1]])
    assert scale == 6
    assert minors == [1, 3, 14]  # leading minors of [[3, 2], [2, 6]]
    assert lam == [[], [2]]


@examples(80)
@given(st.integers(0, 10**6), st.booleans())
def test_integer_nearest_plane_equals_fraction_babai(seed, rational):
    rng = random.Random(seed)
    gram = random_spd_gram(rng, max_rank=8)
    if rational:
        gram = [[Fraction(x, 3) for x in row] for row in gram]
    target = random_target(rng, len(gram))
    (big,), den = clear_denominators([target])
    constants = _nearest_plane_constants(fraction_free_ldl(gram))
    reach, reach_den = _nearest_plane(constants, big, den)
    assert Fraction(reach, reach_den) == babai_value(gram, target) * den * den


@examples(80)
@given(st.integers(0, 10**6))
def test_a_factor_common_to_big_and_den_changes_no_search(seed):
    # coset_minima and plan_minimum take each target (big, den) as given, in
    # lowest terms or not: a common factor k leaves every level scale, the
    # value step, the symmetry test and every DP domain, so every node,
    # alone. So a class target is (adj p, 2 |det|) with no gcd taken out. At
    # k = 1, coset_minima finds the minimum of shortest_in_coset in at most
    # as many nodes.
    rng = random.Random(seed)
    gram = random_spd_gram(rng, max_rank=6)
    problem = CosetProblem(gram, random_target(rng, len(gram)))
    full = shortest_in_coset(problem)
    big, den = integer_target(problem)
    [(value, nodes)] = first = coset_minima(gram, [(big, den)])
    assert value == full.min_norm and nodes <= full.nodes_visited
    for k in range(2, 6):
        assert coset_minima(gram, [([k * b for b in big], k * den)]) == first
    lat = seeded_plumbing_lattice(rng)
    classes = spinc_classes(lat)
    for cls in classes[:: max(1, len(classes) // 4)]:
        adj, den = _class_target(cls.representative)
        assert den == 2 * abs(lat.determinant)
        g = gcd(den, *adj)
        low = [x // g for x in adj], den // g
        expected = plan_minimum(lat.forest_plan, *low)
        assert plan_minimum(lat.forest_plan, adj, den) == expected
        for k in range(1, 6):
            assert plan_minimum(lat.forest_plan, [k * x for x in low[0]], k * low[1]) == expected


@examples(80)
@given(st.integers(0, 10**6), st.booleans())
def test_flat_search_visits_the_reference_nodes(seed, integral):
    # value, minimizers and node count of the integer loop equal those of
    # the recursive Fraction search, with and without LLL (the reduced
    # problem taken from the Fraction LLL oracle)
    rng = random.Random(seed)
    gram = random_spd_gram(rng, max_rank=7, max_entry=9)
    target = [Fraction(rng.randint(-3, 3)) if integral else t for t in random_target(rng, len(gram))]
    plain = shortest_in_coset(CosetProblem(gram, target), reduce=False)
    assert (plain.min_norm, list(plain.minimizers), plain.nodes_visited) == reference_search(gram, target)
    reduced_gram, u = fraction_lll(gram)
    value, hits, nodes = reference_search(reduced_gram, mat_vec(fraction_inverse(u), target))
    reduced = shortest_in_coset(CosetProblem(gram, target))
    assert reduced.min_norm == value and reduced.nodes_visited == nodes
    assert list(reduced.minimizers) == sorted(tuple(mat_vec(u, list(y))) for y in hits)


@examples(40)
@given(st.integers(0, 10**6), st.booleans())
def test_value_only_defects_match_min_char_norm(seed, bimodular):
    rng = random.Random(seed)
    lat = conjugated(rng, rng.choice(BASE_KINDS[bimodular])(rng))
    n = lat.rank
    got = defects(lat)
    if bimodular:
        plus = min_char_norm(lat, CharClassSign.PLUS).min_norm
        minus = min_char_norm(lat, CharClassSign.MINUS).min_norm
        assert (got.d_plus, got.d_minus) == (Fraction(plus - n, 4), Fraction(minus - n, 4))
    else:
        square = min_char_norm(lat, "any").min_norm
        assert got.d_plus == got.d_minus == Fraction(square - n, 4)


@examples(40)
@given(st.integers(0, 10**6), st.booleans())
def test_int_forms_search_as_their_fraction_twins(seed, bimodular):
    # the int Gram skips the Fraction round trip; every result, node counts
    # included, is that of the same problem given in Fractions
    rng = random.Random(seed)
    lat = conjugated(rng, rng.choice(BASE_KINDS[bimodular])(rng))
    gram = [list(row) for row in lat.gram]
    target = [rng.choice([0, 1, -1, Fraction(1, 2), Fraction(-2, 3)]) for _ in gram]
    problem = CosetProblem(gram, target)
    twin = CosetProblem([[Fraction(x) for x in row] for row in gram], [Fraction(x) for x in target])
    assert all(type(x) is int for row in problem.form for x in row)
    assert all(type(x) is Fraction for row in twin.form for x in row)
    assert problem == twin and hash(problem) == hash(twin)
    best = shortest_in_coset(problem)
    assert best == shortest_in_coset(twin)
    minima = [coset_minima(p.form, [integer_target(p)]) for p in (problem, twin)]
    assert minima[0] == minima[1]
    [(value, nodes)] = minima[0]
    assert value == best.min_norm and nodes <= best.nodes_visited
    radius = best.min_norm + 1
    assert enumerate_in_coset(CosetProblem(gram, target, radius)) == enumerate_in_coset(
        CosetProblem(twin.form, twin.target, radius)
    )


def test_clear_denominators_copies_int_rows():
    mat = ((2, -1), (-1, 3))
    rows, scale = clear_denominators(mat)
    assert (rows, scale) == ([[2, -1], [-1, 3]], 1)
    assert all(type(row) is list for row in rows)
    listed = [[2, -1], [-1, 3]]
    rows, _scale = clear_denominators(listed)
    assert rows == listed and all(a is not b for a, b in zip(rows, listed))


# Fixed bases for the pinned lattices below (U7 from helpers).
U9 = [[0, 0, 0, 0, 0, -1, 0, 0, 0], [-1, 0, 0, 0, 1, 0, 0, 1, 0],
      [0, 0, 0, 0, 0, 1, 1, 1, 0], [0, -1, 0, 0, 1, 0, 0, 1, 0],
      [0, 0, 0, 1, 0, 0, 0, 0, 0], [0, -1, 1, 1, 1, 0, 0, 1, 0],
      [0, -1, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, -1, 0, -1, 0],
      [0, -1, 0, 1, 0, 0, 0, 1, -1]]
U5 = [[0, 0, 0, 0, -1], [-1, -1, 0, -1, 0], [1, 0, 0, 0, -1], [-2, -1, 1, 0, 2],
      [0, 0, 0, -1, 0]]

PINNED_LATTICES = {
    "i3": lambda: identity_lattice(3),
    "e7": e7_lattice,
    "a1+e8": lambda: direct_sum(a1_lattice(), e8_lattice()),
    "conj e7": lambda: conjugate_lattice(e7_lattice(), U7),
    "conj i1+e8": lambda: conjugate_lattice(direct_sum(identity_lattice(1), e8_lattice()), U9),
    "conj d5": lambda: conjugate_lattice(diagonal_bimodular_lattice(5), U5),
}

# (lattice, sign, reduce): (min square, number of minimizers, nodes_visited).
# With reduce, min_char_norm's search, which always reduces; its minimizers
# are pairing vectors up to sign. Without, the LLL-free route
# shortest_in_coset(..., reduce=False) on the same coset problem; its
# minimizers are offsets, both of each +-pair of pairing vectors.
PINNED = {
    ("i3", "any", True): (3, 4, 21),
    ("e7", "minus", False): (6, 56, 305),
    ("e7", "minus", True): (6, 28, 305),
    ("a1+e8", "plus", False): (2, 2, 35),
    ("a1+e8", "plus", True): (2, 1, 23),
    ("conj e7", "minus", False): (6, 56, 425),
    ("conj e7", "minus", True): (6, 28, 307),
    ("conj i1+e8", "any", False): (1, 2, 53),
    ("conj i1+e8", "any", True): (1, 1, 19),
    ("conj d5", "any", False): (4, 16, 131),
    ("conj d5", "any", True): (4, 8, 77),
    ("conj d5", "plus", False): (6, 32, 141),
    ("conj d5", "plus", True): (6, 16, 93),
    ("conj d5", "minus", False): (4, 16, 73),
    ("conj d5", "minus", True): (4, 8, 47),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_min_char_norm_node_counts_are_pinned(key):
    name, sign, reduce = key
    lat = PINNED_LATTICES[name]()
    if reduce:
        result = min_char_norm(lat, sign)
        square = result.min_norm
    else:
        if sign == "any":
            problem = _any_problem(lat)
        else:
            rep = characteristic_class_reps(lat)[CharClassSign(sign)]
            problem = _class_problem(rep)
        result = shortest_in_coset(problem, reduce=False)
        square = 4 * result.min_norm
    assert (square, len(result.minimizers), result.nodes_visited) == PINNED[key]


def test_value_only_defects_keep_the_mod_8_check(monkeypatch):
    # characteristic squares of a unimodular lattice are its rank mod 8 (van
    # der Blij), so a minimum of 0 fits E8 (8 = 0 mod 8) but not I_3; it fits
    # the plus class of E7 (7 + 1 = 0 mod 8) but not the minus class
    # (7 - 1 = 6 mod 8)
    monkeypatch.setattr(
        DEFECTS, "_class_minima", lambda lat, reps, node_budget: [(Fraction(0), 0)] * len(reps)
    )
    assert defects(e8_lattice()).d_plus == -2
    with pytest.raises(CongruenceViolationError, match="is not 3 mod 8"):
        defects(identity_lattice(3))
    with pytest.raises(CongruenceViolationError, match="is not 6 mod 8"):
        defects(e7_lattice())
