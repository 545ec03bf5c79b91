"""Seifert data, negative continued fractions, and canonical plumbings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latdefect import (
    ConnectedSum,
    ExpressionParseError,
    ExpressionTerm,
    FormatError,
    NotIntegerError,
    NotNegativeDefiniteError,
    NotRationalHomologySphereError,
    PlumbingTree,
    PoincareAtom,
    SeifertData,
    ZeroLegFramingError,
    bad_vertex_indices,
    canonical_plumbing,
    gram,
    h1_order,
    neg_continued_fraction,
    negative_e8_tree,
    parse_expression,
    reverse_orientation,
)

YBAR = SeifertData(-2, (Fraction(-15, 13), Fraction(-17, 3), Fraction(-23, 22)))


def test_ncf_goldens():
    assert neg_continued_fraction(Fraction(-15, 13)).coefficients == (-2,) * 6 + (-3,)
    assert neg_continued_fraction(Fraction(-17, 3)).coefficients == (-6, -3)
    assert neg_continued_fraction(Fraction(-23, 22)).coefficients == (-2,) * 22
    assert neg_continued_fraction(Fraction(-3)).coefficients == (-3,)
    # a float, a string or a bool is no rational: 0.1 would expand its binary value
    for value in (0.1, "7/3", True):
        with pytest.raises(FormatError, match="is not an int or Fraction"):
            neg_continued_fraction(value)


@given(
    num=st.integers(min_value=-50, max_value=50).filter(lambda p: p != 0),
    den=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=200, deadline=None)
def test_ncf_roundtrip(num, den):
    value = Fraction(num, den)
    expansion = neg_continued_fraction(value)
    assert expansion.evaluate() == value
    if value < -1:
        assert all(a <= -2 for a in expansion.coefficients)


def test_seifert_euler_number_and_homology():
    assert YBAR.euler_number == Fraction(-2, 5865)
    assert h1_order(YBAR) == 2
    forward = reverse_orientation(YBAR)
    assert forward.central == 2
    assert forward.legs == (Fraction(15, 13), Fraction(17, 3), Fraction(23, 22))
    assert h1_order(forward) == 2


def test_seifert_validation():
    with pytest.raises(ZeroLegFramingError):
        SeifertData(-2, (Fraction(0),))
    with pytest.raises(NotRationalHomologySphereError) as info:
        SeifertData(1, (Fraction(1),))
    assert info.value.exit_code == 2
    for central, legs, message in (
        (2, ("15/13",), "leg 1 '15/13' is not an int or Fraction"),
        (True, (Fraction(3, 2),), "central framing True is not an int"),
        (1.5, (Fraction(3, 2),), "central framing 1.5 is not an int"),
    ):
        with pytest.raises(FormatError, match=f"^{message}$"):
            SeifertData(central, legs)


def test_canonical_plumbing_shape():
    tree = canonical_plumbing(YBAR)
    assert tree.rank == 32
    assert tree.weights[0] == -2
    # legs are chains of NCF coefficients hanging off the center
    assert tree.weights[1:8] == (-2,) * 6 + (-3,)
    assert tree.weights[8:10] == (-6, -3)
    assert tree.weights[10:] == (-2,) * 22
    lat = gram(tree)
    assert lat.sign == -1
    assert abs(lat.determinant) == 2
    assert bad_vertex_indices(tree) == (0,)
    assert len(bad_vertex_indices(tree)) == 1


def test_canonical_plumbing_center_degree():
    tree = canonical_plumbing(YBAR)
    assert len(tree.adjacency[0]) == 3
    chain_degrees = sorted(len(ns) for ns in tree.adjacency[1:])
    assert chain_degrees.count(1) == 3  # one free end per leg


def test_e8_tree():
    tree = negative_e8_tree()
    assert tree.weights == (-2,) * 8
    lat = gram(tree)
    assert lat.sign == -1
    assert abs(lat.determinant) == 1
    assert len(bad_vertex_indices(tree)) == 1


def test_canonical_plumbing_normalizes_legs_and_rejects_only_positive_euler_number():
    # e(Y) > 0 is the one rejection: after normalizing, the star is negative
    # definite exactly when e(Y) < 0
    with pytest.raises(NotNegativeDefiniteError, match=r"e\(Y\) = 1/2 > 0") as info:
        canonical_plumbing(SeifertData(0, (Fraction(-2),)))
    assert info.value.exit_code == 2
    # any other leg moves an integer into the central weight: 1/(3/2) = 2/3
    # has ceiling 1, so the leg becomes 1/(2/3 - 1) = -3 and the center -3
    shifted = SeifertData(-2, (Fraction(-3, 2), Fraction(3, 2)))
    normal = SeifertData(-3, (Fraction(-3, 2), Fraction(-3)))
    assert shifted.euler_number == normal.euler_number
    assert canonical_plumbing(shifted) == canonical_plumbing(normal)
    assert canonical_plumbing(normal).weights == (-3, -2, -2, -3)
    # a leg with integral 1/r merges into the center: L(3, 1)
    assert canonical_plumbing(SeifertData(-1, (Fraction(1, 2),))).weights == (-3,)


def test_canonical_plumbing_rejects_indefinite_tree():
    data = SeifertData(-1, (Fraction(-15, 13), Fraction(-17, 3), Fraction(-23, 22)))
    with pytest.raises(NotNegativeDefiniteError) as info:
        canonical_plumbing(data)
    assert info.value.exit_code == 2


def test_tree_validation():
    with pytest.raises(ValueError, match="at least one vertex"):
        PlumbingTree((), ())
    with pytest.raises(ValueError, match="cannot form a tree"):
        PlumbingTree((-2, -2), ())
    with pytest.raises(ValueError, match="invalid edge"):
        PlumbingTree((-2, -2), ((0, 2),))
    with pytest.raises(ValueError, match="invalid edge"):
        PlumbingTree((-2, -2), ((1, 1),))
    for edge in ((0.0, 1), (True, 0)):
        with pytest.raises(ValueError, match=r"^invalid edge \("):
            PlumbingTree((-2, -2), (edge,))
    # weights follow the one integer rule, checked before anything reads them
    for weights in (("a",), (-2.5,), (True,)):
        with pytest.raises(NotIntegerError, match="is not an integer"):
            PlumbingTree(weights, ())
    (weight,) = PlumbingTree((Fraction(-3),), ()).weights
    assert weight == -3 and type(weight) is int
    with pytest.raises(ValueError, match="duplicate edge"):
        PlumbingTree((-2, -2, -2), ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="disconnected"):
        PlumbingTree((-2, -2, -2, -2), ((0, 1), (1, 2), (0, 2)))


def test_parse_expression_goldens():
    parsed = parse_expression("3*P + Y(2; 15/13, 17/3, 23/22)")
    assert isinstance(parsed, ConnectedSum)
    assert parsed.terms == (
        ExpressionTerm(3, PoincareAtom()),
        ExpressionTerm(1, reverse_orientation(YBAR)),
    )
    assert parse_expression("P").terms == (ExpressionTerm(1, PoincareAtom()),)
    assert parse_expression("-P").terms == (ExpressionTerm(1, PoincareAtom(-1)),)
    assert parse_expression("-Y(2; 3/2)").terms == (
        ExpressionTerm(1, SeifertData(-2, (Fraction(-3, 2),))),
    )


@pytest.mark.parametrize("count", [0, -1, -2, Fraction(1, 2), True])
@pytest.mark.parametrize("atom", [PoincareAtom(), YBAR], ids=["P", "two-class"])
def test_hand_built_terms_need_a_positive_count(atom, count):
    # the parser refuses 0*P with a position; a term built by hand once took
    # any count, and a two-class summand then ignored it
    with pytest.raises(FormatError, match=f"multiplicity {count} is not a positive int"):
        ExpressionTerm(count, atom)


@pytest.mark.parametrize("orientation", [0, 2, -2, 1.0, True])
def test_hand_built_poincare_atoms_need_orientation_plus_or_minus_one(orientation):
    with pytest.raises(FormatError, match=f"orientation {orientation} is not"):
        PoincareAtom(orientation)


def test_parse_expression_errors_carry_positions():
    cases = [
        ("", 0, "expected 'P'"),
        ("Q", 0, "expected 'P'"),
        ("2P", 1, "expected '\\*'"),
        ("0*P", 1, "multiplicity"),
        ("Y(2: 3)", 3, "expected ';'"),
        ("Y(2; 1/0)", 8, "zero denominator"),
        ("P x", 2, "trailing"),
        # ASCII digits only: str.isdigit() takes a superscript two, and an
        # Arabic-Indic three, which int() would read as 3
        ("Y(-1; -\u00b2)", 7, "expected digits"),
        ("Y(-1; -\u0663)", 7, "expected digits"),
    ]
    for text, position, fragment in cases:
        with pytest.raises(ExpressionParseError, match=fragment) as info:
            parse_expression(text)
        assert info.value.position == position
        assert info.value.exit_code == 1

