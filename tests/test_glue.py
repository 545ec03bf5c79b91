"""Gluing determinant-2 lattices into unimodular overlattices."""

import pytest

from latdefect import (
    CharClassSign,
    Covector,
    IntegralLattice,
    NotBimodularError,
    NotPositiveDefiniteError,
    Overlattice,
    a1_lattice,
    base_characteristic,
    char_class_sign,
    characteristic_class_reps,
    defects,
    diagonal_bimodular_lattice,
    e7_lattice,
    extend_covector,
    glue_overlattice,
    identity_lattice,
    is_characteristic,
    is_diagonal,
    is_diagonal_bimodular,
    min_char_norm,
    restrict_covector,
    roots,
    unit_vectors,
    validate_lattice,
)


def test_glue_two_a1_is_square_lattice():
    over = glue_overlattice(a1_lattice(), a1_lattice())
    assert isinstance(over, Overlattice)
    assert isinstance(over, IntegralLattice)
    assert over.rank == 2
    assert abs(over.determinant) == 1
    assert over.sublattice_index == 2
    assert is_diagonal(over)


def test_glue_delta_with_a1_is_diagonal():
    for n in (1, 2, 3, 5):
        over = glue_overlattice(diagonal_bimodular_lattice(n), a1_lattice())
        assert over.rank == n + 1
        assert is_diagonal(over)


def test_glue_e7_with_a1_is_e8():
    over = glue_overlattice(e7_lattice(), a1_lattice())
    assert over.rank == 8
    assert abs(over.determinant) == 1
    assert all(over.gram[i][i] % 2 == 0 for i in range(8))  # even lattice
    assert not unit_vectors(over)
    assert len(roots(over)) == 120
    assert min_char_norm(over).min_norm == 0


def test_double_delta_is_cube_lattice():
    for n in (1, 2, 4):
        lat = diagonal_bimodular_lattice(n)
        over = glue_overlattice(lat, lat)
        assert over.rank == 2 * n
        assert is_diagonal(over)
        assert defects(over).d_plus == 0


def test_double_e7_realizes_minimal_defect_sum():
    e7 = e7_lattice()
    over = glue_overlattice(e7, e7)
    assert over.rank == 14
    assert not is_diagonal(over)
    assert defects(over).d_plus == -2


def test_defect_additivity_over_glue():
    pairs = [
        (a1_lattice(), a1_lattice()),
        (diagonal_bimodular_lattice(3), a1_lattice()),
        (e7_lattice(), a1_lattice()),
        (e7_lattice(), e7_lattice()),
    ]
    for left, right in pairs:
        over = glue_overlattice(left, right)
        dl = defects(left)
        dr = defects(right)
        expected = min(dl.d_plus + dr.d_minus, dl.d_minus + dr.d_plus)
        assert defects(over).d_plus == expected


def test_glue_diagonality_matches_summand_recognizer():
    for lat in (a1_lattice(), diagonal_bimodular_lattice(4), e7_lattice()):
        over = glue_overlattice(lat, a1_lattice())
        assert is_diagonal(over) == is_diagonal_bimodular(lat)


def test_glue_requires_determinant_two():
    with pytest.raises(NotBimodularError):
        glue_overlattice(identity_lattice(2), a1_lattice())
    with pytest.raises(NotBimodularError):
        glue_overlattice(a1_lattice(), validate_lattice([[4]]))


def test_glue_requires_positive_definite():
    with pytest.raises(NotPositiveDefiniteError):
        glue_overlattice(validate_lattice([[-2]]), a1_lattice())


def test_restriction_is_orthogonal_projection():
    over = glue_overlattice(e7_lattice(), a1_lattice())
    chi = base_characteristic(over)
    left = restrict_covector(chi, "left")
    right = restrict_covector(chi, "right")
    assert left.lattice == over.left
    assert right.lattice == over.right
    # Pythagoras across the orthogonal splitting
    assert chi.positive_norm == left.positive_norm + right.positive_norm
    assert is_characteristic(left)
    assert is_characteristic(right)
    assert char_class_sign(left) is char_class_sign(right).opposite


def test_restriction_guards():
    over = glue_overlattice(a1_lattice(), a1_lattice())
    chi = base_characteristic(over)
    with pytest.raises(ValueError):
        restrict_covector(chi, "middle")
    with pytest.raises(ValueError):
        restrict_covector(base_characteristic(a1_lattice()), "left")


def test_extension_characteristic_iff_opposite_signs():
    left, right = e7_lattice(), a1_lattice()
    over = glue_overlattice(left, right)
    left_reps = characteristic_class_reps(left)
    right_reps = characteristic_class_reps(right)
    for ls in (CharClassSign.PLUS, CharClassSign.MINUS):
        for rs in (CharClassSign.PLUS, CharClassSign.MINUS):
            combined = extend_covector(over, left_reps[ls], right_reps[rs])
            assert combined is not None  # characteristic sums always extend
            assert combined.lattice == over
            assert is_characteristic(combined) == (ls is rs.opposite)


def test_extension_of_generator_against_zero_fails():
    over = glue_overlattice(a1_lattice(), a1_lattice())
    from latdefect import discriminant_group

    gen = discriminant_group(over.left).generators[0]
    zero = Covector((0,), over.right)
    assert extend_covector(over, gen, zero) is None


def test_extension_rejects_foreign_covectors():
    over = glue_overlattice(a1_lattice(), a1_lattice())
    foreign = Covector((1, 1), identity_lattice(2))
    with pytest.raises(ValueError):
        extend_covector(over, foreign, Covector((0,), over.right))


def test_basis_change_has_half_integral_rows():
    over = glue_overlattice(e7_lattice(), a1_lattice())
    for row in over.basis_change:
        for x in row:
            assert (2 * x).denominator == 1


def test_restrict_extend_roundtrip():
    over = glue_overlattice(diagonal_bimodular_lattice(2), a1_lattice())
    chi = base_characteristic(over)
    left = restrict_covector(chi, "left")
    right = restrict_covector(chi, "right")
    back = extend_covector(over, left, right)
    assert back == chi
