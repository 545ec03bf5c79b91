"""Lattice validation, spin-c classes, characteristic covectors, roots, and
recognizers.

The Hermite box classes are checked against the Smith route kept in
tests/helpers.py, and the box's combined adjugate against the covector solve
of each class representative. Division-based discriminant orders (and
generators when |det| <= 2) are checked against the inverse of the Smith
left matrix, also kept in tests/helpers.py.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latdefect import (
    CharClassSign,
    CosetProblem,
    Covector,
    FormatError,
    NotBimodularError,
    NotCharacteristicError,
    NotDefiniteError,
    NotIntegerError,
    NotSymmetricError,
    SeifertData,
    ToolkitError,
    a1_lattice,
    base_characteristic,
    char_class_sign,
    conjugate_lattice,
    diagonal_bimodular_lattice,
    direct_sum,
    discriminant_group,
    dual_gram,
    e7_lattice,
    e8_lattice,
    h1_order,
    identity_lattice,
    is_characteristic,
    is_diagonal,
    is_diagonal_bimodular,
    random_unimodular,
    roots,
    spinc_classes,
    unit_vectors,
    validate_lattice,
)
from latdefect.dinvariant import _seifert_tree
from latdefect.lattice import MAX_SPINC_CLASSES
from latdefect.linalg import hermite_row_basis, mat_mul, reduce_mod_rows, transpose

from helpers import (
    LATTICE,
    box_points_within,
    collapse_sign_pairs,
    conjugated_lattices,
    discriminant_generators_by_inverse,
    examples,
    plumbing_lattices,
    quadratic_value,
    smith_row_kernel,
    smith_spinc_keys,
)


def test_validate_rejects_asymmetric():
    with pytest.raises(NotSymmetricError) as info:
        validate_lattice([[1, 2], [3, 1]])
    assert info.value.exit_code == 1
    assert (info.value.row, info.value.col) == (0, 1)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, 2]], "row 0 has length 2, expected 1"),
        ([[]], "row 0 has length 0, expected 1"),
        ([[1], [2]], "row 0 has length 1, expected 2"),
        ([[1, 0], [0]], "row 1 has length 1, expected 2"),
    ],
    ids=["long row", "empty row", "column", "short second row"],
)
def test_non_square_matrices_name_the_bad_row(rows, message):
    for build in (validate_lattice, lambda form: CosetProblem(form, [0] * len(form))):
        with pytest.raises(FormatError, match=message) as info:
            build(rows)
        assert info.value.exit_code == 1


def test_validate_rejects_indefinite():
    with pytest.raises(NotDefiniteError):
        validate_lattice([[1, 2], [2, 1]])
    with pytest.raises(NotDefiniteError):
        validate_lattice([[0]])


def test_validate_signs_and_determinant():
    pos = validate_lattice([[2, 1], [1, 2]])
    assert (pos.sign, pos.determinant) == (1, 3)
    neg = validate_lattice([[-2, 1], [1, -2]])
    assert (neg.sign, neg.determinant) == (-1, 3)
    assert neg.positive_gram == ((2, -1), (-1, 2))


def test_dual_gram_is_inverse():
    lat = validate_lattice([[2, 1], [1, 2]])
    assert dual_gram(lat) == (
        (Fraction(2, 3), Fraction(-1, 3)),
        (Fraction(-1, 3), Fraction(2, 3)),
    )


def test_covector_norm_and_pairing():
    lat = a1_lattice()
    gen = discriminant_group(lat).generators[0]
    assert gen.pairings == (1,)
    assert gen.positive_norm == Fraction(1, 2)
    neg = validate_lattice([[-2]])
    cov = Covector((1,), neg)
    assert cov.positive_norm == Fraction(1, 2)


def test_discriminant_group_orders():
    assert discriminant_group(a1_lattice()).orders == (2,)
    assert discriminant_group(identity_lattice(3)).orders == ()
    assert discriminant_group(diagonal_bimodular_lattice(5)).orders == (2,)
    assert discriminant_group(e7_lattice()).orders == (2,)
    assert discriminant_group(validate_lattice([[4]])).orders == (4,)


def test_base_characteristic_is_diagonal():
    lat = validate_lattice([[2, 1], [1, 4]])
    chi = base_characteristic(lat)
    assert chi.pairings == (2, 4)
    assert is_characteristic(chi)


def test_is_characteristic():
    lat = identity_lattice(2)
    assert is_characteristic(Covector((1, 1), lat))
    assert is_characteristic(Covector((3, -1), lat))
    assert not is_characteristic(Covector((2, 1), lat))


def test_char_class_sign_a1():
    lat = a1_lattice()
    # square 2 = 1 + 1 = n + 1 mod 8: plus class
    assert char_class_sign(Covector((2,), lat)) is CharClassSign.PLUS
    assert char_class_sign(Covector((0,), lat)) is CharClassSign.MINUS
    # 3 * generator-translate: square 18 = 2 mod 8, still plus
    assert char_class_sign(Covector((6,), lat)) is CharClassSign.PLUS
    assert str(CharClassSign.PLUS) == "+"
    assert CharClassSign.PLUS.opposite is CharClassSign.MINUS


def test_char_class_sign_requires_characteristic():
    with pytest.raises(NotCharacteristicError):
        char_class_sign(Covector((1,), a1_lattice()))


def test_char_class_sign_requires_det_two():
    with pytest.raises(NotBimodularError):
        char_class_sign(Covector((1, 1), identity_lattice(2)))


def test_char_class_on_negative_definite_uses_positive_square():
    lat = validate_lattice([[-2]])
    assert char_class_sign(Covector((2,), lat)) is CharClassSign.PLUS
    assert char_class_sign(Covector((0,), lat)) is CharClassSign.MINUS


def test_unit_vectors_and_minimality():
    assert unit_vectors(identity_lattice(2)) == [(0, 1), (1, 0)]
    assert not unit_vectors(a1_lattice())
    assert unit_vectors(identity_lattice(1))
    assert not unit_vectors(e8_lattice())


def test_roots_of_small_lattices():
    assert roots(identity_lattice(2)) == [(1, -1), (1, 1)]
    assert roots(a1_lattice()) == [(1,)]


def test_roots_match_box_oracle_up_to_rank_four():
    for gram in ([[2]], [[2, -1], [-1, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                 [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]):
        lat = validate_lattice(gram)
        hits = box_points_within(gram, [0] * lat.rank, 2)
        oracle = collapse_sign_pairs(x for x, v in hits if v == 2)
        assert roots(lat) == oracle


def test_roots_of_e8():
    e8 = e8_lattice()
    found = roots(e8)
    assert len(found) == 120
    assert all(quadratic_value(e8.gram, v) == 2 for v in found)
    assert len(set(found)) == 120


def test_root_counts_of_exceptional_lattices():
    assert len(roots(e7_lattice())) == 63


def test_is_diagonal():
    assert is_diagonal(identity_lattice(4))
    assert not is_diagonal(e8_lattice())
    # unimodular but checked generically: conjugated cube still diagonal
    lat = validate_lattice([[2, 1], [1, 1]])
    assert lat.determinant == 1
    assert is_diagonal(lat)


def test_is_diagonal_against_the_hermite_rank_of_the_units():
    # the elkies suite's bases, conjugated, and a det-2 lattice, which has
    # n - 1 pairs of units
    rng = random.Random(22)
    bases = [identity_lattice(n) for n in range(1, 9)]
    bases += [e8_lattice(), direct_sum(identity_lattice(2), e8_lattice())]
    bases += [diagonal_bimodular_lattice(4)]
    verdicts = []
    for base in bases:
        lat = conjugate_lattice(base, random_unimodular(rng, base.rank))
        expected = len(hermite_row_basis(unit_vectors(lat))) == lat.rank
        assert is_diagonal(lat) == expected
        verdicts.append(expected)
    assert verdicts == [True] * 8 + [False] * 3


def test_is_diagonal_bimodular():
    assert is_diagonal_bimodular(a1_lattice())
    for n in range(1, 6):
        assert is_diagonal_bimodular(diagonal_bimodular_lattice(n))
    assert not is_diagonal_bimodular(e7_lattice())
    with pytest.raises(ValueError, match="rank must be at least 1"):
        diagonal_bimodular_lattice(0)
    with pytest.raises(NotBimodularError):
        is_diagonal_bimodular(identity_lattice(2))
    # conjugated copy of diag(1, 2) keeps the property
    lat = validate_lattice([[3, 1], [1, 1]])
    assert lat.determinant == 2
    assert is_diagonal_bimodular(lat)
    # conjugated lattices, against the orthogonal complement of the unit
    # vectors taken from the Smith kernel oracle
    rng = random.Random(21)
    bases = [diagonal_bimodular_lattice(n) for n in range(1, 8)]
    bases += [e7_lattice(), direct_sum(a1_lattice(), e8_lattice())]
    bases += [direct_sum(diagonal_bimodular_lattice(3), e8_lattice())]
    verdicts = []
    for base in bases:
        lat = conjugate_lattice(base, random_unimodular(rng, base.rank))
        units = unit_vectors(lat)
        expected = len(hermite_row_basis(units)) == lat.rank - 1
        if expected and units:
            kernel = smith_row_kernel(mat_mul(lat.gram, transpose(units)))
            expected = len(kernel) == 1 and quadratic_value(lat.gram, kernel[0]) == 2
        assert is_diagonal_bimodular(lat) == expected
        verdicts.append(expected)
    assert verdicts == [True] * 7 + [False] * 3


def test_delta_n_is_not_diagonal():
    with pytest.raises(NotBimodularError):
        # is_diagonal has no determinant restriction; the bimodular check does
        is_diagonal_bimodular(identity_lattice(3))
    assert not is_diagonal(diagonal_bimodular_lattice(3))


def test_direct_sum():
    lat = direct_sum(a1_lattice(), identity_lattice(2))
    assert lat.gram == ((2, 0, 0), (0, 1, 0), (0, 0, 1))
    assert lat.determinant == 2
    with pytest.raises(ValueError):
        direct_sum(a1_lattice(), validate_lattice([[-1]]))


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(-7, 3), 1.7, 2.0, "3", None, True])
def test_non_integer_entries_are_rejected_not_truncated(entry):
    lat = a1_lattice()
    with pytest.raises(NotIntegerError):
        Covector((entry,), lat)
    with pytest.raises(NotIntegerError):
        Covector((0,), lat).translate((entry,))
    with pytest.raises(NotIntegerError):
        validate_lattice([[2, entry], [entry, 2]])


def test_translate_rejects_a_shift_of_another_length():
    with pytest.raises(ValueError, match="does not match lattice rank"):
        Covector((1, 2), a1_lattice())
    chi = base_characteristic(e7_lattice())
    for delta in ([2] * 8, [2] * 6):
        with pytest.raises(ValueError):
            chi.translate(delta)
    assert chi.translate([2] * 7).pairings == (4,) * 7


def test_integral_fractions_are_accepted_as_ints():
    lat = a1_lattice()
    cov = Covector((Fraction(4, 2),), lat)
    assert cov.pairings == (2,) and type(cov.pairings[0]) is int
    assert cov.translate((Fraction(-2),)).pairings == (0,)
    lat2 = validate_lattice([[Fraction(2), Fraction(-1)], [-1, 2]])
    assert lat2.gram == ((2, -1), (-1, 2))
    assert all(type(x) is int for row in lat2.gram for x in row)


@examples(150)
@given(st.one_of(plumbing_lattices(), conjugated_lattices(max_rank=6, max_entry=5, max_det=1000)))
def test_hermite_box_classes_match_the_smith_route(lat):
    classes = spinc_classes(lat)
    assert len(classes) == abs(lat.determinant)
    assert len({c.representative.pairings for c in classes}) == len(classes)
    basis = hermite_row_basis(lat.positive_gram)
    keys = set()
    for cls in classes:
        assert cls.representative.lattice == lat
        assert is_characteristic(cls.representative)
        shift = [(p - d) // 2 for p, d in zip(cls.representative.pairings, lat.diagonal)]
        keys.add(tuple(reduce_mod_rows(shift, basis)))
    assert keys == smith_spinc_keys(lat)


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


@examples(200)
@given(conjugated_lattices(max_rank=6, max_entry=9))
def test_discriminant_generators_match_the_inverse_route(lat):
    # the orders are the oracle's; its generators are matched exactly for
    # |det| <= 2, where the group has one canonical generator at most, and
    # otherwise each generator g of order d is checked to be reduced, to have
    # order exactly d, and the generators to span the whole group
    group = discriminant_group(lat)
    pairings = tuple(g.pairings for g in group.generators)
    orders, oracle = discriminant_generators_by_inverse(lat)
    assert group.orders == orders
    det = abs(lat.determinant)
    if det <= 2:
        assert pairings == oracle
    hnf = hermite_row_basis(lat.positive_gram)
    for gen, d in zip(pairings, group.orders):
        assert reduce_mod_rows(gen, hnf) == list(gen)
        # k g is in G Z^n exactly when adj(G) k g = 0 mod det
        lands = [
            k for k in range(1, d + 1)
            if d % k == 0 and all(x % det == 0 for x in lat.solve([k * y for y in gen]))
        ]
        assert lands == [d]
    keys = set()
    for coeffs in itertools.product(*(range(d) for d in group.orders)):
        shift = [sum(c * gen[i] for c, gen in zip(coeffs, pairings)) for i in range(lat.rank)]
        keys.add(tuple(reduce_mod_rows(shift, hnf)))
    assert len(keys) == det


def test_discriminant_group_rejects_an_inexact_division(monkeypatch):
    # Z/6 = Z/2 + Z/3 sits on the Hermite block diag(2, 3); with V replaced by
    # the identity, column 1 of R^T V = (0, 3) is not divisible by the
    # invariant factor 6
    lat = validate_lattice([[2, 0], [0, 3]])
    blocks = []
    smith = LATTICE.smith_normal_form

    def tampered(block):
        blocks.append(block)
        diag, left, _right = smith(block)
        return diag, left, [[1, 0], [0, 1]]

    monkeypatch.setattr(LATTICE, "smith_normal_form", tampered)
    with pytest.raises(ToolkitError, match="not divisible by 6"):
        discriminant_group(lat)
    assert blocks == [[[2, 0], [0, 3]]]


def test_spinc_class_bound_is_inclusive():
    assert len(spinc_classes(validate_lattice([[-MAX_SPINC_CLASSES]]))) == MAX_SPINC_CLASSES
    with pytest.raises(FormatError, match=f"exceed the limit of {MAX_SPINC_CLASSES}"):
        spinc_classes(validate_lattice([[-(MAX_SPINC_CLASSES + 1)]]))
