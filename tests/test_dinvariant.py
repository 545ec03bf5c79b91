"""Correction terms of plumbed 3-manifolds and connected sums."""

from fractions import Fraction

import pytest

from latdefect import (
    POINCARE_SPHERE_D,
    LabellingViolationError,
    NotNegativeDefiniteError,
    PlumbingTree,
    QuarterPair,
    ResidueViolationError,
    SeifertData,
    TooManyBadVerticesError,
    UnsupportedExpressionError,
    d_invariant,
    evaluate_expression,
    gram,
    is_characteristic,
    label_quarter,
    negative_e8_tree,
    reverse_pair,
    seifert_class_values,
    spinc_classes,
    sum_with_homology_spheres,
)


def test_e8_boundary_has_d_two():
    tree = negative_e8_tree()
    (cls,) = spinc_classes(gram(tree))
    assert d_invariant(tree, cls) == POINCARE_SPHERE_D == 2


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
        assert len({c.class_id for c in classes}) == len(classes)
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


def test_reverse_pair_negates_and_swaps():
    pair = QuarterPair(Fraction(-31, 4), Fraction(-17, 4))
    assert reverse_pair(pair) == QuarterPair(Fraction(17, 4), Fraction(31, 4))
    assert reverse_pair(reverse_pair(pair)) == pair


def test_sum_with_homology_spheres():
    pair = QuarterPair(Fraction(-31, 4), Fraction(-17, 4))
    shifted = sum_with_homology_spheres(pair, [2, 2, 2])
    assert shifted == QuarterPair(Fraction(-7, 4), Fraction(7, 4))
    with pytest.raises(ResidueViolationError):
        sum_with_homology_spheres(pair, [3])
    with pytest.raises(ResidueViolationError):
        sum_with_homology_spheres(pair, [Fraction(1, 2)])


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


def test_indefinite_seifert_space_rejected():
    with pytest.raises(NotNegativeDefiniteError):
        seifert_class_values(
            SeifertData(-1, (Fraction(-15, 13), Fraction(-17, 3), Fraction(-23, 22)))
        )


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
    combined = sum_with_homology_spheres(ybar_report.pair, [2, 2, 2])
    assert combined == QuarterPair(Fraction(-7, 4), Fraction(7, 4))
    reversed_pair = reverse_pair(ybar_report.pair)
    assert reversed_pair == QuarterPair(Fraction(17, 4), Fraction(31, 4))
