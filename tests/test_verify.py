"""Randomized property suites and their helpers."""

import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

from latdefect import (
    FormatError,
    NotIntegerError,
    SUITE_NAMES,
    SuiteFailureError,
    SuiteReport,
    ToolkitError,
    a1_lattice,
    conjugate_lattice,
    defects,
    diagonal_bimodular_lattice,
    e8_lattice,
    identity_lattice,
    random_unimodular,
    validate_lattice,
    verify_suite,
)
from latdefect.linalg import adjugate


def test_random_unimodular_properties():
    rng = random.Random(7)
    for n in (1, 2, 4, 7):
        for _ in range(20):
            u = random_unimodular(rng, n)
            assert adjugate(u)[1] in (1, -1)
            assert max(abs(x) for row in u for x in row) <= 3


def test_conjugation_preserves_invariants():
    rng = random.Random(11)
    lat = diagonal_bimodular_lattice(3)
    base = defects(lat)
    for _ in range(5):
        twisted = conjugate_lattice(lat, random_unimodular(rng, lat.rank))
        assert twisted.determinant == lat.determinant
        assert twisted.sign == lat.sign
        assert defects(twisted) == base


def test_conjugating_e8_keeps_unimodularity():
    twisted = conjugate_lattice(e8_lattice(), random_unimodular(random.Random(3), 8))
    assert abs(twisted.determinant) == 1
    # a basis change of determinant 2 would pass a sublattice off as the same form
    for lat, u in ((a1_lattice(), [[2]]), (identity_lattice(2), [[1, 1], [0, 2]])):
        with pytest.raises(ToolkitError, match="^matrix is not unimodular$"):
            conjugate_lattice(lat, u)
    # a non-integral basis change of determinant -1 would map A1 + A1 onto
    # a different integral form; its entries are refused, not rounded
    half = [[Fraction(1, 2), 1], [Fraction(1, 2), -1]]
    with pytest.raises(NotIntegerError, match="is not an integer"):
        conjugate_lattice(validate_lattice([[2, 0], [0, 2]]), half)


def test_conjugating_by_a_basis_change_of_the_wrong_shape_is_refused():
    # mat_mul zips rows with columns: unchecked, 3 x 2 would give A1 + A1
    # back truncated and 3 x 3 a NotDefiniteError
    lat = validate_lattice([[2, 0], [0, 2]])
    for u in ([[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1, 0]]):
        with pytest.raises(FormatError, match="^row 0 has length"):
            conjugate_lattice(lat, u)
    with pytest.raises(ValueError, match="^basis change of size 3, the lattice has rank 2$"):
        conjugate_lattice(lat, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_each_suite_passes_smoke_run():
    for name in SUITE_NAMES:
        report = verify_suite(name, rank_bound=6, trials=10, seed=5)
        assert report == SuiteReport(name=name, trials=10, checks=report.checks, seed=5)
        assert report.checks >= 10


def test_suites_are_deterministic():
    first = verify_suite("congruence", rank_bound=5, trials=15, seed=42)
    second = verify_suite("congruence", rank_bound=5, trials=15, seed=42)
    assert first == second


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        verify_suite("nonsense")


@pytest.mark.parametrize(
    "arg, value",
    [("trials", -1), ("trials", 0), ("rank_bound", 0), ("rank_bound", -3), ("seed", None),
     ("seed", 1.5), ("seed", "0"), ("node_budget", -1), ("node_budget", 0),
     ("node_budget", 1.5), ("trials", True), ("rank_bound", True), ("seed", False)],
)
def test_bad_arguments_are_rejected_before_any_trial(arg, value, monkeypatch):
    # trials=-1 once reported zero checks, rank_bound=0 leaked randrange's
    # message, seed=None drew an unrepeatable run, and node_budget=-1 failed
    # inside the first search as an exhausted budget
    def no_run(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(sys.modules["latdefect.verify"], "_Run", no_run)
    with pytest.raises(ValueError, match=f"^{arg} must be"):
        verify_suite("elkies", **{arg: value})


def test_violations_surface_as_suite_failure(monkeypatch):
    # break the diagonality recognizer so the unimodular suite must object
    monkeypatch.setattr("latdefect.verify.is_diagonal", lambda lat: False)
    with pytest.raises(SuiteFailureError) as info:
        verify_suite("elkies", rank_bound=4, trials=5, seed=1)
    err = info.value
    assert err.exit_code == 4
    assert err.name == "elkies"
    assert len(err.violations) >= 1
    assert "elkies" in str(err)


# SHA-256 of the JSON list of every Gram matrix conjugate_lattice returned in
# each suite over seeds 0-4 (rank_bound 9, 10 trials), recorded when the
# suites still built every candidate base lattice before choosing one.
CONJUGATED_DIGESTS = {
    "elkies": "a2babbc4360c7ee5efd46c672a0ac8d95e567a4262594906c34514e2b69c0e2f",
    "bimodular": "87fcf58f74aab0c501a2eae37650e79f8d0f342fa9c7133c4d84038ca0517a53",
    "congruence": "453dcf8ae9a4d642ace28b119112cee0de8a6d658495d0eeb92a34e807088ac6",
    "glue": "e55b10ad48b63422c47d187d9969f4812b8e59f8d162291f23df6a97985a06a6",
}


@pytest.mark.parametrize("name", sorted(CONJUGATED_DIGESTS))
def test_suites_draw_the_recorded_lattices(name, monkeypatch):
    verify = sys.modules["latdefect.verify"]
    original = verify.conjugate_lattice
    grams = []

    def recorded(lat, u):
        out = original(lat, u)
        grams.append(out.gram)
        return out

    monkeypatch.setattr(verify, "conjugate_lattice", recorded)
    for seed in range(5):
        verify_suite(name, rank_bound=9, trials=10, seed=seed)
    digest = hashlib.sha256(json.dumps(grams).encode()).hexdigest()
    assert digest == CONJUGATED_DIGESTS[name]
