"""One construction and one route for characteristic classes.

The characteristic classes of a |det| = 2 lattice are its two spin-c
classes, read off the Hermite box that discriminant_group shares, and are
checked against the chi / chi + 2 * generator construction they replaced
(helpers.translate_class_reps). Every class value goes through
defects._class_minima, whose tree dynamic program is checked against the
branch-and-bound search on the same class problems, and both against a
closed form on Z^(n-1) + <delta> for |det| = delta up to 7. The adj p that
spinc_classes combines for each representative is checked against its own
solve.
"""

import random
from fractions import Fraction

from helpers import bimodular_bases, conjugated, translate_class_reps
from test_work import check_rows

from latdefect import (
    CharClassSign,
    SeifertData,
    a1_lattice,
    base_characteristic,
    characteristic_class_reps,
    conjugate_lattice,
    defects,
    diagonal_bimodular_lattice,
    e7_lattice,
    e8_lattice,
    h1_order,
    identity_lattice,
    min_char_norm,
    random_unimodular,
    spinc_classes,
    validate_lattice,
)
from latdefect.defects import _class_minima, _class_target
from latdefect.dinvariant import _seifert_tree
from latdefect.enumeration import coset_minima
from latdefect.linalg import integer_matrix_inverse, mat_vec, transpose

TREE_LATTICES = (
    [a1_lattice(), e7_lattice(), e8_lattice()]
    + [diagonal_bimodular_lattice(n) for n in range(1, 9)]
    + [identity_lattice(n) for n in range(1, 11)]
)


def class_reps(lat):
    if abs(lat.determinant) == 1:
        return [base_characteristic(lat)]
    reps = characteristic_class_reps(lat)
    return [reps[CharClassSign.PLUS], reps[CharClassSign.MINUS]]


def test_tree_dynamic_program_agrees_with_the_search_on_class_problems():
    for lat in TREE_LATTICES:
        assert lat.forest_plan is not None
        reps = class_reps(lat)
        tree = [value for value, _nodes in _class_minima(lat, reps, None)]
        targets = [_class_target(r) for r in reps]
        search = [value for value, _nodes in coset_minima(lat.positive_gram, targets)]
        assert tree == search
        n = lat.rank
        pair = defects(lat)
        if len(reps) == 1:
            expected = [(min_char_norm(lat).min_norm - n) / 4] * 2
        else:
            expected = [
                (min_char_norm(lat, sign).min_norm - n) / 4
                for sign in (CharClassSign.PLUS, CharClassSign.MINUS)
            ]
        assert [pair.d_plus, pair.d_minus] == expected


def test_class_minima_beyond_det_two_match_the_closed_form():
    # On Z^(n-1) + <delta> the class of a rep p is p_n mod 2 delta, with
    # p_n = delta mod 2, and each unit axis adds at least 1, so its least
    # square is n - 1 + min p^2 / delta over that residue. The diagonal basis
    # takes the tree dynamic program; a seeded conjugate takes the search,
    # which is the route _class_minima picks once the conjugate has a cycle
    # (from rank 3 on: every graph on two vertices is a forest).
    rng = random.Random(26)
    for delta in range(2, 8):
        for n in range(1, 6):
            gram = [[int(i == j) for j in range(n)] for i in range(n)]
            gram[-1][-1] = delta
            lat = validate_lattice(gram)
            u = random_unimodular(rng, n)
            conj = conjugate_lattice(lat, u)
            while n >= 3 and conj.forest_plan is not None:
                u = random_unimodular(rng, n)
                conj = conjugate_lattice(lat, u)
            back = transpose(integer_matrix_inverse(u))  # pairings p = U^-T p'

            def expected(p):
                r = p[-1] % (2 * delta)
                return n - 1 + Fraction(min(r, 2 * delta - r) ** 2, delta)

            reps = [c.representative for c in spinc_classes(lat)]
            assert lat.forest_plan is not None and len(reps) == delta
            tree = _class_minima(lat, reps, None)
            assert [4 * value for value, _nodes in tree] == [expected(r.pairings) for r in reps]
            reps = [c.representative for c in spinc_classes(conj)]
            search = coset_minima(conj.positive_gram, [_class_target(r) for r in reps])
            assert [4 * value for value, _nodes in search] == [
                expected(mat_vec(back, list(r.pairings))) for r in reps
            ]


def test_box_combined_adj_is_the_solve_of_each_rep():
    rng = random.Random(25)
    spaces = [SeifertData(-1, (Fraction(-5, 2), Fraction(-5, 3), Fraction(-5, 4)))]
    while len(spaces) < 40:
        legs = tuple(
            Fraction(rng.choice((-1, 1)) * rng.randint(2, 7), rng.randint(1, 5))
            for _ in range(rng.randint(1, 3))
        )
        data = SeifertData(rng.randint(-3, 3), legs)
        if data.euler_number != 0 and h1_order(data) <= 400:
            spaces.append(data)
    seen = set()
    for data in spaces:
        tree, flipped = _seifert_tree(data)
        lat = tree.lattice
        _hnf, free = lat._hermite_box
        seen.add((len(free) > 1, flipped))
        for cls in spinc_classes(lat):
            rep = cls.representative
            assert rep._adj == tuple(lat.solve(rep.pairings))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_class_reps_match_the_translated_generator_construction():
    bases = bimodular_bases(range(1, 7))
    for seed in range(300):
        rng = random.Random(seed)
        lat = conjugated(rng, rng.choice(bases)())
        if rng.random() < 0.5:
            lat = validate_lattice([[-x for x in row] for row in lat.gram])
        found = [(sign, cov.pairings) for sign, cov in characteristic_class_reps(lat).items()]
        assert found == list(translate_class_reps(lat).items())


def test_each_class_representative_is_solved_once(monkeypatch):
    # |free| + 1 solves per lattice: one of diag(G), one per Hermite pivot
    # above 1 (two for H1 = Z/10 + Z/10, so 3 solves for its 100 classes)
    check_rows(monkeypatch, ["defects of conjugated E7", "class values of the main Seifert space",
                             "class values of a space with H1 = Z/10 + Z/10"])


def test_one_hermite_form_serves_every_class_question(monkeypatch):
    # classes, class reps and the discriminant group share one Hermite form
    check_rows(monkeypatch, ["class questions on conjugated E7"])
