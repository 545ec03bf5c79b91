"""Exact linear algebra, cross-checked against sympy."""

import random
from fractions import Fraction

import pytest
import sympy

from latdefect import SeifertData, h1_order
from latdefect.dinvariant import _seifert_tree
from latdefect.errors import FormatError, NotIntegerError, NotSymmetricError
from latdefect.linalg import (
    adjugate,
    hermite_row_basis,
    invert_matrix,
    mat_mul,
    mat_vec,
    reduce_mod_rows,
    require_symmetric,
    sign_normalize,
    sign_representatives,
    smith_normal_form,
    transpose,
)

from helpers import main_example_lattice, per_pivot_hermite_row_basis, smith_row_kernel


def random_int_matrix(rng, m, n, span=9):
    return [[rng.randint(-span, span) for _ in range(n)] for _ in range(m)]


def test_require_symmetric():
    require_symmetric([[1, 2], [2, 1]])
    with pytest.raises(NotSymmetricError) as info:
        require_symmetric([[1, 2], [3, 1]])
    assert (info.value.row, info.value.col) == (0, 1)
    require_symmetric([])
    with pytest.raises(FormatError, match="row 1 has length 1, expected 2"):
        require_symmetric([[1, 2], [2]])


def test_determinant_matches_sympy():
    # the determinant linalg.adjugate reaches is the tests' unimodularity check
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = random_int_matrix(rng, n, n)
        expected = int(sympy.Matrix(a).det())
        if expected == 0:
            with pytest.raises(ValueError):
                adjugate(a)
        else:
            assert adjugate(a)[1] == expected


def test_determinant_of_singular_and_empty():
    assert adjugate([]) == ([], 1)
    for singular in ([[1, 2], [2, 4]], [[0, 1], [0, 0]]):
        with pytest.raises(ValueError):
            adjugate(singular)


def test_inverse_matches_sympy():
    rng = random.Random(2)
    done = 0
    while done < 30:
        n = rng.randint(1, 4)
        a = random_int_matrix(rng, n, n, span=5)
        if int(sympy.Matrix(a).det()) == 0:
            continue
        inv = invert_matrix(a)
        expected = sympy.Matrix(a).inv()
        for i in range(n):
            for j in range(n):
                assert inv[i][j] == Fraction(int(expected[i, j].p), int(expected[i, j].q))
        done += 1


def test_hermite_rank_matches_sympy():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_int_matrix(rng, m, n, span=2)
        assert len(hermite_row_basis(a)) == sympy.Matrix(a).rank()


def test_smith_normal_form_properties():
    rng = random.Random(6)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_int_matrix(rng, m, n, span=6)
        diag, left, right = smith_normal_form(a)
        assert adjugate(left)[1] in (1, -1)
        assert adjugate(right)[1] in (1, -1)
        product = mat_mul(mat_mul(left, a), right)
        for i in range(m):
            for j in range(n):
                assert product[i][j] == (diag[i] if i == j and i < len(diag) else 0)
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d]
        assert all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1))
        # zeros trail
        assert diag == nonzero + [0] * (len(diag) - len(nonzero))


def test_smith_diagonal_matches_sympy():
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_int_matrix(rng, n, n, span=6)
        diag, _left, _right = smith_normal_form(a)
        expected = sympy_snf(sympy.Matrix(a))
        expected_diag = sorted(abs(int(expected[i, i])) for i in range(n))
        assert sorted(diag) == expected_diag


def test_integer_row_kernel():
    # the Smith kernel oracle of tests/helpers
    rng = random.Random(8)
    for _ in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_int_matrix(rng, m, n, span=3)
        kernel = smith_row_kernel(a)
        for v in kernel:
            assert all(x == 0 for x in mat_vec(transpose(a), v))
        rank = sympy.Matrix(a).rank()
        assert len(hermite_row_basis(a)) == rank
        assert len(kernel) == m - rank


def test_hermite_row_basis_canonical():
    rows = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    basis = hermite_row_basis(rows)
    for row in basis:
        assert all(x == 0 for x in reduce_mod_rows(row, basis))
    assert sympy.Matrix(basis).rank() == sympy.Matrix(rows).rank() == len(basis)
    for row in rows:
        assert all(x == 0 for x in reduce_mod_rows(row, basis))
    # pivots positive, entries above each pivot reduced into [0, pivot)
    for k, row in enumerate(basis):
        col = next(j for j, x in enumerate(row) if x)
        assert row[col] > 0
        for above in basis[:k]:
            assert 0 <= above[col] < row[col]


def hermite_test_matrix(rng):
    """1-8 rows of 1-8 entries in -6..6, each row fresh or, from the second
    on, zero, a repeat or a multiple of an earlier row."""
    n = rng.randint(1, 8)
    rows = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.randrange(4) if rows else 0
        if kind == 0:
            rows.append([rng.randint(-6, 6) for _ in range(n)])
        elif kind == 1:
            rows.append([0] * n)
        else:
            scale = 1 if kind == 2 else rng.choice((-3, -2, 2, 3))
            rows.append([scale * x for x in rng.choice(rows)])
    return rows


def test_hermite_row_basis_matches_the_per_pivot_oracle():
    rng = random.Random(29)
    shapes = set()
    for _ in range(500):
        rows = hermite_test_matrix(rng)
        basis = hermite_row_basis(rows)
        assert basis == per_pivot_hermite_row_basis(rows)
        shapes.add((len(rows) > len(rows[0]), len(basis) < min(len(rows), len(rows[0]))))
    # wide and tall, of full and of deficient rank
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def test_hermite_row_basis_matches_the_per_pivot_oracle_on_seifert_plumbings():
    rng = random.Random(30)
    checked = 0
    while checked < 40:
        legs = tuple(
            Fraction(rng.choice((-1, 1)) * rng.randint(2, 9), rng.randint(1, 6))
            for _ in range(rng.randint(1, 4))
        )
        data = SeifertData(rng.randint(-3, 3), legs)
        if data.euler_number == 0 or h1_order(data) > 2000:
            continue
        lat = _seifert_tree(data)[0].lattice
        for gram in (lat.gram, lat.positive_gram):
            assert hermite_row_basis(gram) == per_pivot_hermite_row_basis(gram)
        checked += 1


def test_main_plumbing_hermite_form_is_the_identity_plus_one_column():
    gram = main_example_lattice().positive_gram
    basis = hermite_row_basis(gram)
    assert len(basis) == 32
    for i, row in enumerate(basis[:-1]):
        assert row[:31] == [int(i == j) for j in range(31)]
        assert row[31] in (0, 1)
    assert basis[-1] == [0] * 31 + [2]
    assert basis == per_pivot_hermite_row_basis(gram)


@pytest.mark.parametrize("entry", [2.7, Fraction(3, 2), True, "1"])
def test_hermite_and_reduction_take_integer_entries_only(entry):
    # int() would truncate: [[2.7, 0], [0, 3/2]] would give [[2, 0], [0, 1]],
    # the Smith form of [[3/2]] would be [1] and the adjugate of [[2.5]] det 2
    with pytest.raises(NotIntegerError, match="is not an integer"):
        hermite_row_basis([[entry, 0], [0, 2]])
    with pytest.raises(NotIntegerError, match="is not an integer"):
        reduce_mod_rows([entry, 1], [[2, 0], [0, 1]])
    with pytest.raises(NotIntegerError, match="is not an integer"):
        smith_normal_form([[entry, 0], [0, 2]])
    with pytest.raises(NotIntegerError, match="is not an integer"):
        adjugate([[entry, 0], [0, 2]])
    # integral Fractions pass as their numerators
    assert hermite_row_basis([[Fraction(4, 2), 0], [0, 2]]) == [[2, 0], [0, 2]]
    assert reduce_mod_rows([Fraction(5), 1], [[2, 0], [0, 1]]) == [1, 0]
    assert smith_normal_form([[Fraction(4, 2), 0], [0, 3]])[0] == [1, 6]
    assert adjugate([[Fraction(4, 2), 0], [0, 3]]) == ([[3, 0], [0, 2]], 6)


def test_reduce_mod_rows_idempotent():
    basis = hermite_row_basis([[2, 1], [0, 3]])
    rng = random.Random(9)
    for _ in range(25):
        v = [rng.randint(-20, 20), rng.randint(-20, 20)]
        r = reduce_mod_rows(v, basis)
        assert reduce_mod_rows(r, basis) == r
        # difference lies in the row lattice
        diff = [a - b for a, b in zip(v, r)]
        assert all(x == 0 for x in reduce_mod_rows(diff, basis))


def test_sign_normalize():
    assert sign_normalize((0, -2, 1)) == (0, 2, -1)
    assert sign_normalize((0, 0)) == (0, 0)
    assert sign_normalize((3, -1)) == (3, -1)


def test_sign_representatives_keep_one_sorted_vector_per_pair():
    vectors = [(0, -2, 1), (1, 0, 0), (0, 2, -1), (-1, 0, 0), (0, 0, 0)]
    assert sign_representatives(vectors) == [(0, 0, 0), (0, 2, -1), (1, 0, 0)]
    assert sign_representatives(iter([])) == []
