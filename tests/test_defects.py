"""Defect invariants, characteristic minima, and class arithmetic.

The class minima are checked against a closed form on Z^(n-1) + <delta>,
and the class representatives against the chi / chi + 2 * generator
construction they replaced (helpers.translate_class_reps).
"""

import random
from fractions import Fraction

import pytest

from latdefect import (
    CharClassSign,
    Covector,
    FormatError,
    NotCharacteristicError,
    UnsupportedDeterminantError,
    a1_lattice,
    char_class_sign,
    characteristic_class_reps,
    conjugate_lattice,
    defects,
    diagonal_bimodular_lattice,
    direct_sum,
    dual_gram,
    e7_lattice,
    e8_lattice,
    identity_lattice,
    is_characteristic,
    max_char_square,
    min_char_norm,
    random_unimodular,
    spinc_classes,
    validate_lattice,
)
from latdefect.defects import _class_minima, _class_target
from latdefect.enumeration import coset_minima
from latdefect.linalg import integer_matrix_inverse, mat_vec, transpose

from helpers import bimodular_bases, box_minimum, conjugated, translate_class_reps


QUARTER = Fraction(1, 4)


def test_identity_lattices_have_zero_defect():
    for m in range(1, 11):
        pair = defects(identity_lattice(m))
        assert pair.d_plus == 0
        assert pair.d_minus == 0


def test_e8_defect():
    pair = defects(e8_lattice())
    assert pair.d_plus == -2
    assert pair.d_minus == -2


def test_a1_and_diagonal_bimodular_defects():
    assert defects(a1_lattice()) == defects(diagonal_bimodular_lattice(1))
    for n in range(1, 9):
        pair = defects(diagonal_bimodular_lattice(n))
        assert (pair.d_plus, pair.d_minus) == (QUARTER, -QUARTER)


def test_e7_defects():
    pair = defects(e7_lattice())
    assert (pair.d_plus, pair.d_minus) == (Fraction(-7, 4), -QUARTER)


def test_defect_residues():
    for lat in (a1_lattice(), diagonal_bimodular_lattice(4), e7_lattice()):
        pair = defects(lat)
        assert (pair.d_plus - QUARTER) % 2 == 0
        assert (pair.d_minus + QUARTER) % 2 == 0


def test_defects_stable_under_cube_summands():
    base = e7_lattice()
    padded = direct_sum(base, identity_lattice(3))
    assert defects(padded) == defects(base)
    uni = direct_sum(e8_lattice(), identity_lattice(2))
    assert defects(uni).d_plus == -2


def test_defects_determinant_guard():
    with pytest.raises(UnsupportedDeterminantError):
        defects(validate_lattice([[3]]))


def test_min_char_norm_goldens():
    a1 = a1_lattice()
    plus = min_char_norm(a1, CharClassSign.PLUS)
    assert plus.min_norm == 2
    assert plus.minimizers == ((2,),)
    minus = min_char_norm(a1, "minus")
    assert minus.min_norm == 0
    assert minus.minimizers == ((0,),)
    any_result = min_char_norm(a1, "any")
    assert any_result.min_norm == 0

    cube = identity_lattice(3)
    result = min_char_norm(cube)
    assert result.min_norm == 3
    assert result.minimizers == tuple(
        (1, b, c) for b in (-1, 1) for c in (-1, 1)
    )


def test_min_char_norm_minimizers_are_characteristic():
    lat = validate_lattice([[3, 1], [1, 1]])
    for sign in (CharClassSign.PLUS, CharClassSign.MINUS):
        result = min_char_norm(lat, sign)
        for p in result.minimizers:
            cov = Covector(p, lat)
            assert is_characteristic(cov)
            assert char_class_sign(cov) is sign
            assert cov.positive_norm == Fraction(result.min_norm)


def test_min_char_norm_agrees_with_box_oracle():
    # unrestricted characteristic minimum via the dual-form reduction
    rng = random.Random(21)
    for _ in range(25):
        while True:
            n = rng.randint(1, 3)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.randint(1, 5)
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.randint(-1, 1)
            try:
                lat = validate_lattice(rows)
                break
            except Exception:
                continue
        inverse = [[Fraction(x) for x in row] for row in dual_gram(lat)]
        target = [Fraction(d, 2) for d in lat.diagonal]
        expect, _ = box_minimum(inverse, target)
        assert min_char_norm(lat).min_norm == 4 * expect


def test_min_char_norm_radius_passthrough():
    result = min_char_norm(a1_lattice(), "plus", radius=2)
    assert result.min_norm == 2
    from latdefect import RadiusEmptyError

    # the error names the bound on squares, not the quarter the search uses
    for lat, sign, radius, where in (
        (a1_lattice(), "plus", 1, " in the plus class"),
        (e7_lattice(), "minus", 1, " in the minus class"),
        (identity_lattice(3), "any", 2, ""),
    ):
        message = f"^no characteristic covector{where} with square <= {radius}$"
        with pytest.raises(RadiusEmptyError, match=message):
            min_char_norm(lat, sign, radius=radius)
    for sign, radius in (("any", 8.5), ("plus", "8")):
        with pytest.raises(FormatError, match=f"^radius {radius!r} is not an int or Fraction$"):
            min_char_norm(e7_lattice(), sign, radius=radius)


def test_characteristic_class_reps_split():
    reps = characteristic_class_reps(a1_lattice())
    assert set(reps) == {CharClassSign.PLUS, CharClassSign.MINUS}
    assert reps[CharClassSign.PLUS].pairings == (2,)
    assert reps[CharClassSign.MINUS].pairings in ((0,), (4,), (-2,), (6,))


def test_max_char_square_on_negation():
    neg = validate_lattice([[-2]])
    reps = {char_class_sign(Covector((p,), neg)): Covector((p,), neg) for p in (0, 2)}
    assert max_char_square(neg, reps[CharClassSign.PLUS]) == -2
    assert max_char_square(neg, reps[CharClassSign.MINUS]) == 0


def test_max_char_square_guards():
    neg = validate_lattice([[-2]])
    pos = a1_lattice()
    from latdefect import NotNegativeDefiniteError

    with pytest.raises(NotNegativeDefiniteError):
        max_char_square(pos, Covector((2,), pos))
    with pytest.raises(NotCharacteristicError):
        max_char_square(neg, Covector((2,), pos))
    with pytest.raises(NotCharacteristicError):
        max_char_square(neg, Covector((1,), neg))


def test_defect_additivity_against_direct_sums():
    # defect classes add under orthogonal sum of determinant-2 pieces is not
    # defined; instead check the unrestricted minimum is additive
    left = identity_lattice(2)
    right = e8_lattice()
    both = direct_sum(left, right)
    assert (
        min_char_norm(both).min_norm
        == min_char_norm(left).min_norm + min_char_norm(right).min_norm
    )


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
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            rows[-1][-1] = delta
            lat = validate_lattice(rows)
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


def test_class_reps_match_the_translated_generator_construction():
    bases = bimodular_bases(range(1, 7))
    for seed in range(300):
        rng = random.Random(seed)
        lat = conjugated(rng, rng.choice(bases)())
        if rng.random() < 0.5:
            lat = validate_lattice([[-x for x in row] for row in lat.gram])
        found = [(sign, cov.pairings) for sign, cov in characteristic_class_reps(lat).items()]
        assert found == list(translate_class_reps(lat).items())
