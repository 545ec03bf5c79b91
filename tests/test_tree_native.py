"""The tree-native plumbing path: determinant and adjugate diagonal of the
forest plan against the dense fraction-free adjugate, and spin-c classes
from the Hermite box against the Smith route kept in tests/helpers.py, and
guards (rows of tests/test_work.py) that the main example factors its Gram
matrix once and takes no dense inversion and no Smith form.
"""

from fractions import Fraction

import pytest
from helpers import (
    conjugated_lattices,
    examples,
    plumbing_lattices,
    smith_spinc_keys,
)
from test_work import check_rows
from hypothesis import example, given
from hypothesis import strategies as st

from latdefect import ToolkitError, is_characteristic, spinc_classes
from latdefect.enumeration import forest_plan
from latdefect.linalg import (
    adjugate,
    clear_denominators,
    fraction_free_ldl,
    hermite_row_basis,
    reduce_mod_rows,
)

A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


@st.composite
def forests(draw):
    """A strictly diagonally dominant form on a random forest with shuffled
    vertex labels: components may be single vertices, off-diagonal entries
    take both signs, and entries may be rational with mixed denominators
    (the plan takes the form scaled to integers)."""
    n = draw(st.integers(1, 8))
    rational = draw(st.booleans())
    label = draw(st.permutations(range(n)))
    form = [[Fraction(0)] * n for _ in range(n)]

    def entry(values):
        num = draw(st.sampled_from(values))
        return Fraction(num, draw(st.sampled_from([1, 2, 3, 6]))) if rational else Fraction(num)

    for v in range(1, n):
        parent = draw(st.integers(-1, v - 1))  # -1 starts a new component
        if parent >= 0:
            a, b = label[v], label[parent]
            form[a][b] = form[b][a] = entry([-3, -2, -1, 1, 2, 3])
    for v in range(n):
        form[v][v] = sum(abs(x) for x in form[v]) + entry([1, 2, 3, 4])
    return form


@examples(150)
@given(forests())
@example([[Fraction(5)]])  # rank 1
@example([[Fraction(2), 0, 0], [0, Fraction(3), 0], [0, 0, Fraction(5, 2)]])  # no edges
def test_plan_matches_the_dense_adjugate(form):
    rows, _scale = clear_denominators(form)
    adj, det = adjugate(rows)
    plan = forest_plan(rows, fraction_free_ldl(rows))
    assert plan.determinant == det
    assert plan.adjugate_diagonal == tuple(adj[v][v] for v in range(len(adj)))


def test_plan_determinant_must_match_the_ldl():
    lam, minors, scale = fraction_free_ldl(A3)
    corrupted = (lam, minors[:-1] + [minors[-1] + 1], scale)
    with pytest.raises(ToolkitError, match="forest minors multiply to 4"):
        forest_plan(A3, corrupted)


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


def test_main_example_factors_its_gram_once(monkeypatch):
    # one fraction-free LDL of the 32-vertex Gram, whose factor also gives
    # the plan's nearest-plane constants
    check_rows(monkeypatch, ["the main example", "nearest-plane constants of the main plan"])


def test_lattice_plan_reads_no_dense_adjugate(monkeypatch):
    # the class targets come from solves on the factor, not from adj G
    check_rows(monkeypatch, ["class targets of a small plumbing"])


def test_main_example_takes_no_dense_inversion_or_smith_form(monkeypatch):
    # one Hermite form and no adjugate, inverse or Smith form
    check_rows(monkeypatch, ["the main example"])
