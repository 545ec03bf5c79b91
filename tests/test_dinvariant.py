"""Correction terms of plumbed 3-manifolds and connected sums."""

import hashlib
import importlib
import itertools
import random
from fractions import Fraction

import pytest
from helpers import DEFECTS, lens_d, tau_canonical_d

from latdefect import (
    POINCARE_SPHERE_D,
    BudgetExhaustedError,
    CosetProblem,
    Covector,
    DInvariantReport,
    FormatError,
    LabellingViolationError,
    NotCharacteristicError,
    PlumbingTree,
    QuarterPair,
    ResidueViolationError,
    SeifertData,
    SpinCClass,
    TooManyBadVerticesError,
    UnsupportedExpressionError,
    base_characteristic,
    canonical_plumbing,
    d_invariant,
    defects,
    e8_lattice,
    enumerate_in_coset,
    evaluate_expression,
    format_fraction,
    gram,
    h1_order,
    is_characteristic,
    label_quarter,
    max_char_square,
    min_char_norm,
    negative_e8_tree,
    parse_expression,
    reverse_orientation,
    seifert_class_values,
    shortest_in_coset,
    spinc_classes,
)
from latdefect.cli import main
from latdefect.dinvariant import _seifert_tree


def test_e8_boundary_has_d_two():
    tree = negative_e8_tree()
    (cls,) = spinc_classes(gram(tree))
    assert d_invariant(tree, cls) == POINCARE_SPHERE_D == 2


def test_d_invariant_rejects_a_class_of_another_plumbing():
    # the rank-4 plumbing's first class once gave 5/4 on the rank-8 tree
    trees = [
        _seifert_tree(parse_expression(text).terms[0].atom)[0]
        for text in ("Y(-1; -2, -3, -5)", "Y(-1; -2, -4, -5)")
    ]
    assert [tree.rank for tree in trees] == [8, 4]
    with pytest.raises(NotCharacteristicError, match="different lattice"):
        d_invariant(trees[0], spinc_classes(trees[1].lattice)[0])


def test_single_vertex_trees():
    minus_one = PlumbingTree((-1,), ())
    (cls,) = spinc_classes(gram(minus_one))
    assert d_invariant(minus_one, cls) == 0

    minus_two = PlumbingTree((-2,), ())
    values = sorted(d_invariant(minus_two, c) for c in spinc_classes(gram(minus_two)))
    assert values == [Fraction(-1, 4), Fraction(1, 4)]


def test_spinc_classes_count_and_representatives():
    for tree in (
        PlumbingTree((-2,), ()),
        PlumbingTree((-3, -1, -3), ((0, 1), (1, 2))),
        negative_e8_tree(),
    ):
        lat = gram(tree)
        classes = spinc_classes(lat)
        assert len(classes) == abs(lat.determinant)
        assert len({c.representative.pairings for c in classes}) == len(classes)
        for c in classes:
            assert c.representative.lattice == lat
            assert is_characteristic(c.representative)


def test_two_bad_vertices_rejected():
    tree = PlumbingTree((-4, -1, -4, -1, -4), ((0, 1), (1, 2), (2, 3), (3, 4)))
    lat = gram(tree)
    assert lat.sign == -1
    classes = spinc_classes(lat)
    with pytest.raises(TooManyBadVerticesError) as info:
        d_invariant(tree, classes[0])
    assert info.value.exit_code == 2


def test_label_quarter():
    pair = label_quarter([Fraction(-17, 4), Fraction(-31, 4)])
    assert pair == QuarterPair(Fraction(-31, 4), Fraction(-17, 4))
    assert label_quarter([Fraction(1, 4), Fraction(-1, 4)]) == QuarterPair(
        Fraction(1, 4), Fraction(-1, 4)
    )
    with pytest.raises(LabellingViolationError):
        label_quarter([Fraction(1, 4), Fraction(9, 4)])  # same residue twice
    with pytest.raises(LabellingViolationError):
        label_quarter([Fraction(1, 2), Fraction(-1, 4)])
    for values in ([0.25, -0.25], ["x", 1]):
        with pytest.raises(FormatError, match="is not an int or Fraction"):
            label_quarter(values)


def test_reverse_pair_negates_and_swaps(ybar_report):
    # evaluated on its own, the reversed space's pair is the pair negated with
    # its labels swapped, the reversal that report_verdict reads
    pair = ybar_report.pair
    reversed_pair = evaluate_expression("-Y(2; 15/13, 17/3, 23/22)").pair
    assert reversed_pair == QuarterPair(-pair.d_minus_quarter, -pair.d_quarter)
    assert reversed_pair == QuarterPair(Fraction(17, 4), Fraction(31, 4))
    assert evaluate_expression("--Y(2; 15/13, 17/3, 23/22)").pair == pair


def test_homology_sphere_summands_must_have_even_terms(monkeypatch):
    # Y(2; 2/1, 3/2, 5/4) has |H1| = 1; a homology sphere summand whose
    # term is not an even integer is refused
    dinvariant = importlib.import_module("latdefect.dinvariant")
    monkeypatch.setattr(dinvariant, "seifert_class_values", lambda data, **_: (Fraction(1),))
    with pytest.raises(ResidueViolationError, match="term 1 is not an even integer"):
        evaluate_expression("Y(2; 2/1, 3/2, 5/4) + Y(-2; -3/2, -5/3)")


def test_evaluate_poincare_sums():
    assert evaluate_expression("P").class_values == (Fraction(2),)
    assert evaluate_expression("-P").class_values == (Fraction(-2),)
    report = evaluate_expression("3*P")
    assert report.h1 == 1
    assert report.class_values == (Fraction(6),)
    assert report.pair is None


def test_evaluate_seifert_space_with_eleven_classes():
    report = evaluate_expression("Y(-2; -3/2, -5/3)")
    assert report.h1 == 11
    assert len(report.class_values) == 11
    assert report.pair is None
    assert report.class_values == tuple(sorted(report.class_values))


def test_sphere_summand_shifts_every_class():
    base = evaluate_expression("Y(-2; -3/2, -5/3)")
    shifted = evaluate_expression("P + Y(-2; -3/2, -5/3)")
    assert shifted.class_values == tuple(sorted(v + 2 for v in base.class_values))


def test_orientation_flip_negates_class_values():
    forward = seifert_class_values(SeifertData(2, (Fraction(3, 2),)))
    backward = seifert_class_values(SeifertData(-2, (Fraction(-3, 2),)))
    assert forward == tuple(-v for v in backward)
    assert sorted(forward) == [Fraction(-3, 4), 0, 0, Fraction(1, 4)]


def test_positive_euler_number_space_evaluates_through_its_reverse():
    # e(Y) = 5863/5865 > 0: read on the reverse, whose normalized plumbing
    # Y(-2; -15/2, -17/14, -23) is negative definite, and negated
    data = SeifertData(-1, (Fraction(-15, 13), Fraction(-17, 3), Fraction(-23, 22)))
    assert data.euler_number > 0
    values = seifert_class_values(data)
    assert len(values) == 5863
    assert values == tuple(-v for v in seifert_class_values(reverse_orientation(data)))


def per_class_values(data: SeifertData) -> list[Fraction]:
    """d_invariant of every class in spinc_classes order, one tree dynamic
    program each, negated when the plumbing is of the reverse."""
    tree, flipped = _seifert_tree(data)
    sign = -1 if flipped else 1
    return [sign * d_invariant(tree, cls) for cls in spinc_classes(tree.lattice)]


def counted_dynamic_programs(monkeypatch) -> list[int]:
    """Node counts of every tree dynamic program run from now on."""
    runs = []
    original = DEFECTS.plan_minimum

    def counting(*args, **kwargs):
        value, nodes = original(*args, **kwargs)
        runs.append(nodes)
        return value, nodes

    monkeypatch.setattr(DEFECTS, "plan_minimum", counting)
    return runs


def test_conjugate_classes_share_one_value_class_by_class():
    # every three-leg space with legs -a/b, a <= 5, center -1 or -2 and 30 to
    # 600 classes (72 of them with e(Y) > 0, read on the reverse), and two
    # spaces with non-cyclic first homology
    legs = sorted({Fraction(-p, q) for p in range(2, 6) for q in range(1, p)})
    spaces = [
        SeifertData(-2, (-2, -2, -2)),  # (Z/2)^2
        SeifertData(-3, (-4, -4, -2)),  # Z/4 + Z/16
    ]
    for central in (-1, -2):
        for combo in itertools.combinations_with_replacement(legs, 3):
            if central != sum(1 / r for r in combo):
                data = SeifertData(central, combo)
                if 30 <= h1_order(data) <= 600:
                    spaces.append(data)
    assert len(spaces) == 146
    assert sum(data.euler_number > 0 for data in spaces) == 72
    for data in spaces:
        assert list(seifert_class_values(data)) == per_class_values(data), data


def test_conjugate_class_has_the_same_correction_term():
    for data in (
        SeifertData(-3, (-4, -4, -2)),
        SeifertData(-2, (Fraction(-5, 2), Fraction(-5, 3), Fraction(-7, 3))),
        SeifertData(-1, (-2, -2, -2)),  # e(Y) > 0
    ):
        tree, _flipped = _seifert_tree(data)
        lat = tree.lattice
        classes = spinc_classes(lat)
        modulus = 2 * abs(lat.determinant)
        keys = [tuple(x % modulus for x in lat.solve(c.representative.pairings)) for c in classes]
        assert len(set(keys)) == len(classes)  # adj p mod 2 |det| names the class
        for cls in classes[:: max(1, len(classes) // 8)]:
            p = cls.representative.pairings
            negated = SpinCClass(Covector(tuple(-x for x in p), lat))
            assert is_characteristic(negated.representative)
            conjugate = classes[keys.index(tuple(-x % modulus for x in lat.solve(p)))]
            value = d_invariant(tree, cls)
            assert d_invariant(tree, negated) == d_invariant(tree, conjugate) == value


def self_conjugate_count(data: SeifertData) -> int:
    """Classes with adj p = 0 mod |det|, that is adj p = -adj p mod 2 |det|."""
    tree, _flipped = _seifert_tree(data)
    lat = tree.lattice
    return sum(
        all(x % lat.determinant == 0 for x in lat.solve(c.representative.pairings))
        for c in spinc_classes(lat)
    )


@pytest.mark.parametrize(
    ("data", "classes", "self_conjugate", "programs"),
    [
        (SeifertData(2, (Fraction(15, 13), Fraction(17, 3), Fraction(23, 22))), 2, 2, 2),
        (SeifertData(-1, (Fraction(-15, 13), Fraction(-17, 3), Fraction(-23, 22))), 5863, 1, 2932),
        (SeifertData(-3, (-4, -4, -2)), 64, 4, 34),
        (SeifertData(-2, (-2, -2, -2)), 4, 4, 4),
    ],
)
def test_one_dynamic_program_per_conjugate_pair(
    monkeypatch, data, classes, self_conjugate, programs
):
    assert h1_order(data) == classes
    assert self_conjugate_count(data) == self_conjugate
    runs = counted_dynamic_programs(monkeypatch)
    assert len(seifert_class_values(data)) == classes
    assert len(runs) == (classes + self_conjugate) // 2 == programs


def test_node_budget_bounds_each_dynamic_program(monkeypatch, capsys):
    # every class of Y(-3; -4, -4, -2) has its nearest-plane value below its
    # value step, so none of its programs searches a box
    runs = counted_dynamic_programs(monkeypatch)
    values = seifert_class_values(SeifertData(-3, (-4, -4, -2)))
    assert len(runs) == 34 and set(runs) == {0}
    assert seifert_class_values(SeifertData(-3, (-4, -4, -2)), node_budget=1) == values
    runs.clear()
    data = SeifertData(-1, (-6, -3, Fraction(-3, 2)))
    values = seifert_class_values(data)
    first, largest = runs[0], max(runs)
    assert first < largest < sum(runs)  # the budget is per program, not per space
    assert seifert_class_values(data, node_budget=largest) == values
    with pytest.raises(BudgetExhaustedError) as info:
        seifert_class_values(data, node_budget=first - 1)
    assert (info.value.nodes, info.value.budget) == (first, first - 1)
    for budget, code in ((first - 1, 3), (largest, 0)):
        assert main(["--node-budget", str(budget), "seifert", "d", "Y(-1; -6, -3, -3/2)"]) == code
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("budget", [-5, 0, 1.5, "3", True])
def test_node_budget_is_checked_where_it_enters(budget):
    # evaluate_expression("P", node_budget=-5) once returned, as no dynamic
    # program runs on the sphere, and the two public searches once took 0 and
    # below as budgets exhausted at the first node
    e8 = e8_lattice()
    negative = gram(negative_e8_tree())
    entries = [
        lambda: shortest_in_coset(CosetProblem([[2]], [0]), node_budget=budget),
        lambda: enumerate_in_coset(CosetProblem([[2]], [0], radius=2), node_budget=budget),
        lambda: evaluate_expression("P", node_budget=budget),
        lambda: seifert_class_values(SeifertData(-3, (-4, -4, -2)), node_budget=budget),
        lambda: defects(e8, node_budget=budget),
        lambda: min_char_norm(e8, node_budget=budget),
        lambda: max_char_square(negative, base_characteristic(negative), node_budget=budget),
    ]
    for entry in entries:
        with pytest.raises(ValueError, match="^node_budget must be None or an int of at least 1"):
            entry()
    assert evaluate_expression("P", node_budget=1).class_values == (2,)


def test_report_pair_is_derived_from_its_values():
    values = (Fraction(-31, 4), Fraction(-17, 4))
    assert DInvariantReport(values).pair == label_quarter(values)
    assert DInvariantReport(values).pair == QuarterPair(Fraction(-31, 4), Fraction(-17, 4))
    assert DInvariantReport((Fraction(2),)).pair is None
    assert evaluate_expression("Y(-2; 2, 3, 4)").h1 > 2
    assert evaluate_expression("Y(-2; 2, 3, 4)").pair is None
    with pytest.raises(TypeError):
        DInvariantReport(values, QuarterPair(Fraction(1, 4), Fraction(-1, 4)))
    with pytest.raises(LabellingViolationError):
        DInvariantReport((Fraction(0), Fraction(1)))


def test_spaces_outside_normal_form_evaluate():
    # the Poincare sphere and its reverse, and a space whose reverse is
    # Y(-2; -2, -3/2, -4/3) in normal form
    assert seifert_class_values(SeifertData(1, (2, 3, 5))) == (POINCARE_SPHERE_D,) == (2,)
    assert evaluate_expression("Y(1; 2, 3, 5)").class_values == (2,)
    assert evaluate_expression("Y(-1; -2, -3, -5)").class_values == (-2,)
    assert evaluate_expression("Y(1; 2, 3, 4)").class_values == (Fraction(1, 4), Fraction(7, 4))


def test_lens_spaces_match_the_recursion():
    # Y(e; r) is a lens space: with p/q = |e(Y)| in lowest terms, its class
    # values are d(-L(p, q), i) when e(Y) < 0 and their negatives otherwise
    assert sorted(seifert_class_values(SeifertData(-1, (Fraction(1, 2),)))) == [
        Fraction(-1, 2), Fraction(1, 6), Fraction(1, 6)
    ]
    legs = {Fraction(s * a, b) for a in range(1, 12) for b in range(1, 12) for s in (1, -1)}
    checked = 0
    for central in range(-3, 4):
        for r in sorted(legs):
            euler = central - 1 / r
            if euler == 0 or abs(euler * r.numerator) > 60:
                continue
            p, q = abs(euler).numerator, abs(euler).denominator
            sign = 1 if euler < 0 else -1
            expected = sorted(sign * lens_d(p, q, i) for i in range(p))
            assert sorted(seifert_class_values(SeifertData(central, (r,)))) == expected, (central, r)
            checked += 1
    assert checked == 1156


# SHA-256 of the class values of every space in the box below, as computed
# before legs were normalized: there the box held exactly the spaces that
# evaluated, those whose data or reverse is in normal form (center <= -1,
# legs < -1) with e(Y) < 0
NORMAL_FORM_BOX_DIGEST = "bd0d2c8400a6e6fd9f36d1aa12dd04267968cc3a5515be6d24d8dc72656f058e"


def test_normalizing_keeps_the_values_of_normal_form_spaces():
    legs = sorted({Fraction(-p, q) for p in range(2, 7) for q in range(1, p)})
    lines = []
    for central in range(-3, 0):
        for k in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(legs, k):
                if central - sum(1 / r for r in combo) >= 0:
                    continue
                data = SeifertData(central, combo)
                if h1_order(data) > 60:
                    continue
                for space in (data, reverse_orientation(data)):
                    legs_text = ",".join(map(format_fraction, space.legs))
                    values = ",".join(map(format_fraction, sorted(seifert_class_values(space))))
                    lines.append(f"{space.central};{legs_text}|{values}")
    assert len(lines) == 894
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == NORMAL_FORM_BOX_DIGEST


def test_two_large_homology_summands_rejected():
    with pytest.raises(UnsupportedExpressionError):
        evaluate_expression("Y(2; 3/2) + Y(2; 3/2)")
    with pytest.raises(UnsupportedExpressionError):
        evaluate_expression("2*Y(2; 3/2)")


def test_main_example_pair(ybar_report):
    assert ybar_report.h1 == 2
    assert ybar_report.class_values == (Fraction(-31, 4), Fraction(-17, 4))
    assert ybar_report.pair == QuarterPair(Fraction(-31, 4), Fraction(-17, 4))


def test_multiplicities_shift_by_one_product(ybar_report):
    # k summands shift by k times the correction term; no k-long list is built
    k = 10**30
    report = evaluate_expression(f"{k}*P + Y(2; 15/13, 17/3, 23/22)")
    shift = 2 * k
    assert report.class_values == tuple(v + shift for v in ybar_report.class_values)
    assert report.pair == QuarterPair(
        ybar_report.pair.d_quarter + shift, ybar_report.pair.d_minus_quarter + shift
    )
    # Y(2; 2/1, 3/2, 5/4) is a Seifert homology sphere with d = -2
    assert evaluate_expression("Y(2; 2/1, 3/2, 5/4)").class_values == (Fraction(-2),)
    spheres = evaluate_expression(f"{k}*Y(2; 2/1, 3/2, 5/4) + {k}*-P + 3*P")
    assert spheres.class_values == (Fraction(6 - 2 * shift),)


def test_main_example_composed_with_spheres(ybar_report):
    # the pair of a sum labels the shifted class values
    combined = evaluate_expression("3*P + Y(2; 15/13, 17/3, 23/22)")
    assert combined.pair == QuarterPair(Fraction(-7, 4), Fraction(7, 4))
    assert combined.pair == label_quarter(v + 6 for v in ybar_report.class_values)
    assert combined.h1 == 2
    # reversing every summand negates the pair and swaps its labels, which
    # leaves the main sum's pair where it was
    reversed_pair = evaluate_expression("3*-P + -Y(2; 15/13, 17/3, 23/22)").pair
    assert reversed_pair == QuarterPair(-combined.pair.d_minus_quarter, -combined.pair.d_quarter)
    assert reversed_pair == combined.pair


def canonical_class_d(data: SeifertData) -> Fraction:
    """(max K^2 + s) / 4 over the class of K, K(v) = -v.v - 2, by the tree
    dynamic program on the canonical plumbing."""
    lat = canonical_plumbing(data).lattice
    canonical = Covector(tuple(-row[v] - 2 for v, row in enumerate(lat.gram)), lat)
    return (max_char_square(lat, canonical) + lat.rank) / 4


def test_tau_function_matches_the_tree_dp_on_the_canonical_class():
    # the reversed main example pins the tau step: with floor for ceil in it,
    # the tau route gives -1999/4 here while few sampled spaces move
    reversed_main = parse_expression("Y(-2; -15/13, -17/3, -23/22)").terms[0].atom
    assert tau_canonical_d(reversed_main) == canonical_class_d(reversed_main) == Fraction(17, 4)
    # seeded sample of the box e in [-3, 3], 1-3 legs +-p/q with p, q <= 7,
    # |H1| <= 60, each space taken on the side with e(Y) < 0
    rng = random.Random(22)
    checked = 0
    while checked < 1000:
        central = rng.randint(-3, 3)
        legs = tuple(
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 7))
            for _ in range(rng.randint(1, 3))
        )
        euler = central - sum(1 / r for r in legs)
        if euler == 0:
            continue
        data = SeifertData(central, legs)
        if euler > 0:
            data = reverse_orientation(data)
        if h1_order(data) > 60:
            continue
        assert tau_canonical_d(data) == canonical_class_d(data), data
        checked += 1
