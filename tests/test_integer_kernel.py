"""The integer-only lattice kernel against the Fraction routes it replaced.

Inversion and Gram validation are checked on hypothesis-drawn input against
the oracles in tests/helpers.py: Gauss-Jordan over Fractions and a Fraction
LDL^T for definiteness. Gluing's guards are checked on planted glue vectors.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import latdefect
from latdefect import (
    GlueFailureError,
    NotDefiniteError,
    ToolkitError,
    a1_lattice,
    conjugate_lattice,
    e7_lattice,
    glue_overlattice,
    identity_lattice,
    random_unimodular,
    validate_lattice,
)
from latdefect.linalg import integer_matrix_inverse, invert_matrix

from helpers import (
    GLUE,
    U7,
    count_calls,
    examples,
    fraction_inverse,
    ldl_validation,
    smith_saturation_check,
    symmetric_matrices,
    tracer_layers,
)


@st.composite
def square_matrices(draw, rational=False, max_rank=12):
    """Small entries, many zeros, so leading pivots often vanish."""
    n = draw(st.integers(1, max_rank))
    entry = st.integers(-3, 3)
    if rational:
        entry = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@st.composite
def swapped_triangular(draw):
    """Upper triangular with nonzero diagonal, rows reversed: every step swaps."""
    n = draw(st.integers(2, 12))
    rows = [
        [0] * i + [draw(st.sampled_from([-2, -1, 1, 3]))]
        + [draw(st.integers(-4, 4)) for _ in range(n - i - 1)]
        for i in range(n)
    ]
    return rows[::-1]


@st.composite
def singular_matrices(draw):
    """The last row is an integer combination of the others."""
    rows = draw(square_matrices(max_rank=8))
    n = len(rows)
    coeffs = [draw(st.integers(-2, 2)) for _ in range(n - 1)]
    rows[-1] = [sum(c * rows[i][j] for i, c in enumerate(coeffs)) for j in range(n)]
    return rows


def assert_inverse_matches(mat):
    try:
        expected = fraction_inverse(mat)
    except ValueError:
        with pytest.raises(ValueError):
            invert_matrix(mat)
        return
    assert invert_matrix(mat) == expected


@examples(60)
@given(square_matrices())
def test_invert_integer_matrices(mat):
    assert_inverse_matches(mat)


@examples(60)
@given(square_matrices(rational=True))
def test_invert_rational_matrices(mat):
    assert_inverse_matches(mat)


@examples(60)
@given(swapped_triangular())
def test_invert_with_row_swaps(mat):
    assert mat[0][0] == 0
    assert invert_matrix(mat) == fraction_inverse(mat)


@examples(60)
@given(singular_matrices())
@example([[1, 2], [2, 4]])
def test_singular_input_raises(mat):
    with pytest.raises(ValueError):
        invert_matrix(mat)
    with pytest.raises(ValueError):
        integer_matrix_inverse(mat)


@examples(60)
@given(st.integers(1, 12), st.integers(0, 10**6))
def test_integer_inverse_of_unimodular(n, seed):
    u = random_unimodular(random.Random(seed), n)
    assert integer_matrix_inverse(u) == fraction_inverse(u)


@examples(60)
@given(square_matrices(max_rank=8))
@example([[Fraction(1, 2)]])  # its inverse [[2]] is integral, but it is not
def test_integer_inverse_rejects_non_unimodular(mat):
    try:
        expected = fraction_inverse(mat)
    except ValueError:
        return
    if all(Fraction(x).denominator == 1 for row in mat + expected for x in row):
        assert integer_matrix_inverse(mat) == expected
    else:
        with pytest.raises(ToolkitError, match="^matrix is not unimodular$"):
            integer_matrix_inverse(mat)


@examples(60)
@given(symmetric_matrices())
def test_validation_matches_ldl(rows):
    expected = ldl_validation(rows)
    try:
        lat = validate_lattice(rows)
    except NotDefiniteError as err:
        assert expected == ("not definite", err.index, err.minor)
        return
    assert expected == ("definite", lat.sign, lat.determinant)


def test_validation_of_negative_definite_ranks():
    for n in range(1, 7):
        lat = validate_lattice([[-2 if i == j else 0 for j in range(n)] for i in range(n)])
        assert (lat.sign, lat.determinant) == (-1, (-2) ** n)


def test_validation_reports_the_first_failing_minor():
    # leading principal minors 2, 3, -15
    rows = [[2, 1, 0], [1, 2, 3], [0, 3, 1]]
    with pytest.raises(NotDefiniteError) as info:
        validate_lattice(rows)
    assert (info.value.index, info.value.minor) == (3, -15)
    assert ldl_validation(rows) == ("not definite", 3, -15)
    for bad, first in (([[-1, 0], [0, 1]], (2, -1)), ([], (0, 0))):
        with pytest.raises(NotDefiniteError) as info:
            validate_lattice(bad)
        assert (info.value.index, info.value.minor) == first


def test_glue_divisibility_guards():
    # twice the basis (1/2, 0), (0, 1) meets the first axis in half a vector
    with pytest.raises(GlueFailureError, match="intersection vector is not integral"):
        smith_saturation_check([[1, 0], [0, 2]], 0, 1, 2)


def test_glue_rejects_a_glue_vector_with_odd_self_pairing(monkeypatch):
    # doubled glue vector (1, 0) on A1 + A1 has square 2, a quarter of it 1/2
    doubled = iter([[1], [0]])
    monkeypatch.setattr(GLUE, "_doubled_glue_coordinates", lambda lat: next(doubled))
    with pytest.raises(GlueFailureError, match="self-pairing 1/2"):
        glue_overlattice(a1_lattice(), a1_lattice())


def test_glue_rejects_a_glue_vector_with_an_odd_pairing(monkeypatch):
    # on G = [[1, -1], [-1, 3]] (det 2) twice, parity e = (0, 1, 1, 0) has
    # eG = (-1, 3, 1, -1): eGe = 4 passes, but e/2 pairs -1/2 with the first
    # basis vector
    lat = validate_lattice([[1, -1], [-1, 3]])
    assert lat.determinant == 2
    doubled = iter([[0, 1], [1, 0]])
    monkeypatch.setattr(GLUE, "_doubled_glue_coordinates", lambda lat: next(doubled))
    with pytest.raises(GlueFailureError, match="overlattice Gram is not integral"):
        glue_overlattice(lat, lat)


TRACED_LINALG = tracer_layers()["linalg"]


def test_benchmark_traced_linalg_names_stay_in_use(monkeypatch):
    """bench/tracer.py wraps these names, and reduction.lll_reduce_gram, at
    every module binding; its self-test needs each one called. Fraction
    inverses go through invert_matrix, where the wrapper sees them, while
    defects on a |det| = 2 lattice and gluing build none. Every minimum
    search of rank > 1 reduces its form, and defects on a non-forest (E7 in
    the basis U7) reduces the Gram matrix once for both characteristic
    classes."""
    linalg = sys.modules["latdefect.linalg"]
    reduction = sys.modules["latdefect.reduction"]
    enumeration = sys.modules["latdefect.enumeration"]
    for name in TRACED_LINALG:
        assert callable(getattr(linalg, name))
    assert callable(reduction.lll_reduce_gram)
    assert enumeration.lll_reduce_gram is reduction.lll_reduce_gram
    names = [f"linalg.{name}" for name in TRACED_LINALG] + ["reduction.lll_reduce_gram"]
    calls, _bindings = count_calls(monkeypatch, names)
    reductions = calls["reduction.lll_reduce_gram"]
    latdefect.defects(a1_lattice())
    glue_overlattice(e7_lattice(), a1_lattice())
    assert calls["linalg.invert_matrix"] == []
    assert reductions == []  # rank 1, and gluing runs no search
    latdefect.min_char_norm(identity_lattice(3))
    assert calls["linalg.invert_matrix"] == [3]
    assert reductions == [3]
    conjugated = conjugate_lattice(e7_lattice(), U7)
    assert conjugated.forest_plan is None
    latdefect.defects(conjugated)
    assert reductions == [3, 7]  # one reduction for both characteristic classes
    assert all(calls.values()), calls
