"""The per-lattice forest plan, the lower-envelope messages of the tree DP,
division-based discriminant generators and the spin-c class bound.

Messages are checked against the cell-by-cell loop, and discriminant
orders (and generators when |det| <= 2) against the inverse of the Smith
left matrix, both kept in tests/helpers.py.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from latdefect import (
    FormatError,
    ToolkitError,
    discriminant_group,
    max_char_square,
    spinc_classes,
    validate_lattice,
)
from latdefect.cli import main
from latdefect.defects import _class_target
from latdefect.enumeration import _message, plan_minimum
from latdefect.lattice import MAX_SPINC_CLASSES
from latdefect.linalg import hermite_row_basis, reduce_mod_rows

from helpers import (
    LATTICE,
    cell_message,
    conjugated_lattices,
    discriminant_generators_by_inverse,
    examples,
    main_example_lattice,
)


def progression(draw, max_len):
    start = draw(st.integers(-30, 30))
    step = draw(st.integers(1, 5))
    return list(range(start, start + step * draw(st.integers(1, max_len)), step))


@st.composite
def messages(draw):
    """A vertex domain with its heights, a nonzero edge weight of either sign
    and a parent domain that may be wider or narrower than the vertex's.
    Heights come from a small range so that ties are common."""
    values = progression(draw, 12)
    spread = draw(st.sampled_from([0, 2, 50]))
    heights = [draw(st.integers(-spread, spread)) for _ in values]
    weight = draw(st.integers(-6, 6).filter(bool))
    return heights, values, weight, progression(draw, 12)


@examples(200)
@given(messages())
@example(([7], [3], 2, [-4, 0, 4]))  # a single line
@example(([0, 0, 0], [-2, 0, 2], -1, [5]))  # equal heights, a single query
@example(([4, 1, 0, 1, 4], [-2, -1, 0, 1, 2], 2, [-3, -1, 1, 3]))  # three lines meet at 0
@example(([0, 5, 0], [0, 1, 2], 3, list(range(-20, 21))))  # a line above the envelope
def test_envelope_message_matches_cells(case):
    heights, values, weight, queries = case
    assert _message(heights, values, weight, queries) == cell_message(
        heights, values, weight, queries
    )


@examples(200)
@given(
    st.lists(st.integers(-40, 40), min_size=1, max_size=10, unique=True),
    st.lists(st.integers(-40, 40), min_size=1, max_size=10, unique=True),
    st.integers(-4, 4).filter(bool),
    st.data(),
)
def test_envelope_message_on_any_ascending_values(values, queries, weight, data):
    values.sort()
    queries.sort()
    heights = [data.draw(st.integers(-20, 20)) for _ in values]
    assert _message(heights, values, weight, queries) == cell_message(
        heights, values, weight, queries
    )


def test_main_example_node_total_is_pinned():
    lat = main_example_lattice()
    found = []
    for cls in spinc_classes(lat):
        value, nodes = plan_minimum(lat.forest_plan, *_class_target(cls.representative))
        assert -4 * value == max_char_square(lat, cls.representative)
        found.append((value, nodes))
    # cell by cell, the same two classes cost 484,923 nodes
    assert found == [(Fraction(1, 4), 1783), (Fraction(15, 4), 6908)]
    assert sum(nodes for _value, nodes in found) == 8691


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


def test_cli_rejects_too_many_spinc_classes(capsys):
    # a rank-2 plumbing with 999,999 spin-c classes
    code = main(["seifert", "d", "Y(-1; -1000000/1)"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "999999 spin-c classes exceed the limit" in captured.err
