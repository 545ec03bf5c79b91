"""Which kernels each public call runs, and on what sizes: one row per input
and call. A row's input is built uncounted; its call then runs with every
TRACKED function wrapped at each package binding (helpers.count_calls), and
the row lists the exact sizes (rank or vector length) of each one's calls.
A tracked function a row does not list must not run, so a change that moves
a call count edits its row, and each row's comment says what it guards.
Calls also check the values they return. test_work_table checks every row.
"""

import random
from fractions import Fraction

import pytest
from helpers import (
    U7, conjugated, conjugated_bimodular, conjugated_unimodular, count_calls, integer_target,
    main_example_lattice,
)

from latdefect import (
    CosetProblem, SeifertData, a1_lattice, base_characteristic, canonical_plumbing, characteristic_class_reps,
    conjugate_lattice, defects, discriminant_group, e7_lattice, e8_lattice, enumerate_in_coset,
    evaluate_expression, extend_covector, glue_overlattice, gram, identity_lattice, is_diagonal,
    is_diagonal_bimodular, max_char_square, negative_e8_tree, parse_expression, restrict_covector, roots,
    seifert_class_values, shortest_in_coset, spinc_classes, validate_lattice,
)
from latdefect.defects import _class_target
from latdefect.enumeration import _nearest_plane_constants, coset_minima
from latdefect.linalg import factor_solve

TRACKED = (
    "lattice.validate_lattice", "linalg.fraction_free_ldl", "linalg.factor_solve", "linalg.hermite_row_basis",
    "linalg.smith_normal_form", "linalg.adjugate", "linalg.integer_matrix_inverse", "linalg.invert_matrix",
    "linalg.ldl_decomposition", "reduction.lll_reduce_gram", "enumeration.forest_plan",
    "enumeration.CosetProblem.__init__", "enumeration.coset_minima",
)
D4_GRAM = [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]]
PROBLEM = CosetProblem([[2, 1, 0], [1, 2, 1], [0, 1, 3]], [Fraction(1, 2), 0, Fraction(1, 3)])
# ranks of the 20 conjugated unimodular lattices, E8 and I3, and of the non-forests among them
UNIMODULAR = [6, 2, 8, 3, 3, 9, 9, 5, 3, 7, 9, 7, 7, 4, 1, 3, 5, 8, 2, 10, 8, 3]
SEARCHED = [6, 8, 3, 9, 9, 5, 7, 9, 7, 7, 4, 5, 8, 10]


def check(value, expected):
    assert value == expected


def pair(left_seed, right_seed, cached=False):
    lattices = (conjugated_bimodular(left_seed), conjugated_bimodular(right_seed))
    for lat in lattices if cached else ():
        discriminant_group(lat)
    return lattices


def glue_questions(left, right):
    over = glue_overlattice(left, right)
    chi = base_characteristic(over)
    parts = [restrict_covector(chi, side) for side in ("left", "right")]
    assert extend_covector(over, *parts) == chi
    assert chi.positive_norm == sum(part.positive_norm for part in parts)


def group_lattices():
    """Det-2 lattices in random bases, then their negatives, I5 and E8 in
    random bases, and D4."""
    bimodular = [conjugated_bimodular(seed) for seed in (0, 1, 6, 9)]
    bimodular += [validate_lattice([[-x for x in row] for row in lat.gram]) for lat in bimodular]
    rng = random.Random(0)
    unimodular = [conjugated(rng, base) for base in (identity_lattice(5), e8_lattice())]
    return bimodular + unimodular + [validate_lattice(D4_GRAM)]


def class_targets(lat):
    assert lat.positive_gram is lat.positive_gram
    assert lat.forest_plan.determinant == abs(lat.determinant)
    for cls in spinc_classes(lat):
        adj = factor_solve(lat.factor, cls.representative.pairings)
        assert _class_target(cls.representative) == (adj, 2 * abs(lat.determinant))


def class_questions(lat):
    classes = spinc_classes(lat)
    assert [c.representative for c in classes] == list(characteristic_class_reps(lat).values())
    assert discriminant_group(lat).orders == (2,) and len(classes) == 2


def class_count(text):
    report = evaluate_expression(text)
    return len(report.class_values), report.h1


def searches(ranks, reduce=False, **more):
    """Searches on forms of these ranks: each factors its form through
    ldl_decomposition; one that reduces it first also runs LLL and inverts
    the transform through integer_matrix_inverse."""
    names = ["ldl_decomposition", "fraction_free_ldl"]
    names += ["lll_reduce_gram", "integer_matrix_inverse", "adjugate"] * reduce
    return dict.fromkeys(names, ranks) | more


# defects on a det-2 non-forest: the Hermite box, two class reps solved, one search
NON_FOREST_7 = searches([7], reduce=True, hermite_row_basis=[7], factor_solve=[7, 7], forest_plan=[7],
                        coset_minima=[7])
MAIN_SPACE = "Y(2; 15/13, 17/3, 23/22)"
MAIN_COUNTS = {"validate_lattice": [32], "fraction_free_ldl": [32], "factor_solve": [32, 32],
               "hermite_row_basis": [32], "forest_plan": [32]}
ROWS = {  # row: (input, call, {function: sizes})
    # gluing, restriction and extension solve on factors, with no adjugate
    "glue questions on a det-2 pair": (
        lambda: pair(5, 6), glue_questions,
        {"validate_lattice": [9], "fraction_free_ldl": [9], "factor_solve": [2, 7, 9, 2, 7],
         "hermite_row_basis": [2, 7], "smith_normal_form": [1, 1]}),
    # cached discriminant groups leave gluing no Smith or Hermite form
    "glue questions on cached det-2 summands": (
        lambda: pair(5, 6, cached=True), glue_questions,
        {"validate_lattice": [9], "fraction_free_ldl": [9], "factor_solve": [2, 7, 9, 2, 7]}),
    # the recognizers list norm-1 and norm-2 vectors and take no Hermite form
    "glue and recognizers on cached det-2 summands": (
        lambda: pair(7, 8, cached=True),
        lambda left, right: check(is_diagonal(glue_overlattice(left, right)),
                                  is_diagonal_bimodular(left) and is_diagonal_bimodular(right)),
        {"validate_lattice": [4], "fraction_free_ldl": [4, 4, 3, 1], "factor_solve": [3, 1],
         "ldl_decomposition": [4, 3, 1], "CosetProblem.__init__": [4, 3, 1]}),
    # class reps solve on factors too
    "class reps of a det-2 pair": (
        lambda: pair(5, 6), lambda *lats: [characteristic_class_reps(lat) for lat in lats],
        {"factor_solve": [2, 2, 7, 7], "hermite_row_basis": [2, 7]}),
    # defects on a non-forest invert only their LLL transforms
    "defects of a det-2 non-forest": (lambda: (conjugated_bimodular(6),), defects, NON_FOREST_7),
    # the second call returns the cached group and runs nothing
    "first discriminant group": (
        lambda: (conjugated_bimodular(6),), discriminant_group,
        {"hermite_row_basis": [7], "smith_normal_form": [1]}),
    "second discriminant group": (
        lambda: (lat := conjugated_bimodular(6), discriminant_group(lat)),
        lambda lat, first: check(discriminant_group(lat) is first, True), {}),
    # one Smith form per lattice, on as many rows as the Hermite basis has
    # pivots above 1: one for |det| = 2 in either sign, none when
    # unimodular, two for the Z/2 + Z/2 of D4
    "discriminant groups of 11 lattices": (
        group_lattices,
        lambda *lats: check([discriminant_group(lat).orders for lat in lats], [(2,)] * 8 + [(), (), (2, 2)]),
        {"hermite_row_basis": [4, 9, 7, 5, 4, 9, 7, 5, 5, 8, 4], "smith_normal_form": [1] * 8 + [0, 0, 2]}),
    # the unimodular defect searches on G itself, with no Fraction inverse
    "defects of 20 conjugated unimodular lattices, E8 and I3": (
        lambda: [conjugated_unimodular(seed) for seed in range(20)] + [e8_lattice(), identity_lattice(3)],
        lambda *lats: list(map(defects, lats)),
        searches(SEARCHED, reduce=True, coset_minima=SEARCHED, factor_solve=UNIMODULAR, forest_plan=UNIMODULAR)),
    # one fraction-free LDL of the 32-vertex Gram, whose factor also gives
    # the plan's nearest-plane constants (two rows down), one Hermite form,
    # and no adjugate, inverse or Smith form
    "the main example": (
        lambda: (f"3*P + {MAIN_SPACE}",),
        lambda text: check(evaluate_expression(text).class_values, (Fraction(-7, 4), Fraction(7, 4))),
        MAIN_COUNTS),
    # |free| + 1 solves per lattice, here and in the rows of conjugated E7 and
    # of H1 = Z/10 + Z/10: one of diag(G) and one per Hermite pivot above 1
    "class values of the main Seifert space": (
        lambda: parse_expression(MAIN_SPACE).terms,
        lambda term: check(seifert_class_values(term.atom), (Fraction(-31, 4), Fraction(-17, 4))),
        MAIN_COUNTS),
    "nearest-plane constants of the main plan": (
        lambda: (main_example_lattice(),),
        lambda lat: check(lat.forest_plan.nearest_plane, _nearest_plane_constants(lat.factor)),
        {"forest_plan": [32]}),
    # the class targets come from solves on the factor, not from adj G
    "class targets of a small plumbing": (
        lambda: (canonical_plumbing(SeifertData(-2, (Fraction(-3), Fraction(-5, 2), Fraction(-6)))).lattice,),
        class_targets, {"factor_solve": [5, 5], "hermite_row_basis": [5], "forest_plan": [5]}),
    "defects of conjugated E7": (lambda: (conjugate_lattice(e7_lattice(), U7),), defects, NON_FOREST_7),
    # classes, class reps and the discriminant group share one Hermite form
    "class questions on conjugated E7": (
        lambda: (conjugate_lattice(e7_lattice(), U7),), class_questions,
        {"factor_solve": [7, 7, 7, 7], "hermite_row_basis": [7], "smith_normal_form": [1]}),
    # two Hermite pivots above 1, so 3 solves for its 100 classes
    "class values of a space with H1 = Z/10 + Z/10": (
        lambda: (SeifertData(-1, (Fraction(-5, 2), Fraction(-5, 3), Fraction(-5, 4))),),
        lambda data: check(len(seifert_class_values(data)), 100),
        {"validate_lattice": [6], "fraction_free_ldl": [6], "factor_solve": [6, 6, 6],
         "hermite_row_basis": [6], "forest_plan": [6]}),
    # every class of a tree runs the dynamic program on one plan
    "a space with 35 classes": (
        lambda: ("Y(-1; -4/1, -7/1, -7/3)",), lambda text: check(class_count(text), (35, 35)),
        {"validate_lattice": [6], "fraction_free_ldl": [6], "factor_solve": [6, 6],
         "hermite_row_basis": [6], "forest_plan": [6]}),
    # a tree runs the dynamic program, a triangle the search
    "max char square on the -E8 tree": (
        lambda: (gram(negative_e8_tree()),),
        lambda lat: check(max_char_square(lat, base_characteristic(lat)), 0),
        {"factor_solve": [8], "forest_plan": [8]}),
    "max char square on a triangle": (
        lambda: (validate_lattice([[-2, -1, -1], [-1, -2, -1], [-1, -1, -2]]),),
        lambda lat: check(max_char_square(lat, base_characteristic(lat)), -3),
        searches([3], reduce=True, factor_solve=[3], forest_plan=[3], coset_minima=[3])),
    # listings, the LLL-free route and rank 1 take no LLL; minimum searches do
    "listing in a coset": (
        lambda: (CosetProblem(PROBLEM.form, PROBLEM.target, radius=4),), enumerate_in_coset, searches([3])),
    "roots of E8": (lambda: (e8_lattice(),), roots, searches([8]) | {"CosetProblem.__init__": [8]}),
    "shortest vector without LLL": (
        lambda: (PROBLEM,), lambda p: shortest_in_coset(p, reduce=False), searches([3])),
    "shortest vector at rank 1": (
        lambda: (CosetProblem([[2]], [Fraction(1, 3)]),), shortest_in_coset, searches([1])),
    "shortest vector": (lambda: (PROBLEM,), shortest_in_coset, searches([3], reduce=True)),
    "minima of two targets": (
        lambda: (PROBLEM.form, [integer_target(PROBLEM)] * 2), coset_minima, searches([3], reduce=True)),
    # the block-diagonal Gram of two validated lattices is not validated
    # again: only the overlattice Gram is
    "glue of E7 and A1": (
        lambda: (e7_lattice(), a1_lattice()),
        lambda left, right: check(is_diagonal(glue_overlattice(left, right)), False),
        {"validate_lattice": [8], "fraction_free_ldl": [8, 8], "factor_solve": [7, 1],
         "hermite_row_basis": [7, 1], "smith_normal_form": [1, 1], "ldl_decomposition": [8],
         "CosetProblem.__init__": [8]}),
}


def test_work_table(monkeypatch):
    # every row runs with every TRACKED function counted, and the sizes each
    # one ran on are compared with the row's
    for name in ("lattice.factor_solve", "lattice.IntegralLattice.rank", "linalg.no_such_kernel"):
        with pytest.raises(ValueError, match="is not a function defined in"):
            count_calls(monkeypatch, [name])
    calls, bindings = count_calls(monkeypatch, TRACKED)
    assert [name for name in TRACKED if bindings[name] < 1] == []
    found = {}
    for row, (build, call, _expected) in ROWS.items():
        args = build()
        for sizes in calls.values():
            sizes.clear()
        call(*args)
        found[row] = {name.partition(".")[2]: list(sizes) for name, sizes in calls.items() if sizes}
    assert found == {row: expected for row, (_build, _call, expected) in ROWS.items()}
