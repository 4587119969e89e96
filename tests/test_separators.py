"""The planar pair-line enumeration must return exactly the labelings the
exact-rational LP accepts, in lexicographic order (+1 before -1)."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locent.classes import circle_domain
from locent.separators import enumerate_separator_patterns
from oracles import is_affinely_separable, ref_separator_patterns


def assert_matches_lp(pts):
    want = [lab for lab in product((1, -1), repeat=len(pts))
            if is_affinely_separable(pts, lab)]
    got = enumerate_separator_patterns(pts)
    assert got.dtype == np.int8
    assert np.array_equal(got, np.array(want, dtype=np.int8))


@pytest.mark.parametrize("seed", range(12))
def test_hull_matches_lp_random(seed):
    rng = np.random.default_rng(seed)
    assert_matches_lp(rng.integers(-5, 6, size=(5, 2)).astype(float))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9),
       st.sampled_from(["normal", "grid", "exponents"]))
def test_integer_cross_products_match_the_rationals(seed, n, kind):
    # dyadic coordinates from 1e-300 to 1e300, collinear and coincident
    # integer grids and plain normals give the Fraction enumeration's bytes
    rng = np.random.default_rng(seed)
    if kind == "normal":
        pts = rng.normal(size=(n, 2))
    elif kind == "grid":
        pts = rng.integers(-2, 3, size=(n, 2)) * 0.5
    else:
        pts = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-300, 301, size=(n, 2))
    assert enumerate_separator_patterns(pts).tobytes() == ref_separator_patterns(pts).tobytes()


@pytest.mark.parametrize("n", range(1, 8))
def test_degenerate_sets_match_lp(n):
    # nine integer positions in [-1,1]^2: many collinear triples and
    # coincident points
    rng = np.random.default_rng(n)
    for _ in range(6):
        assert_matches_lp(rng.integers(-1, 2, size=(n, 2)).astype(float))


def test_circle_domain_has_all_convex_dichotomies():
    for n in range(1, 21):
        pats = enumerate_separator_patterns(circle_domain(n).coords)
        assert pats.shape == (n * (n - 1) + 2, n)
        rows = [tuple(r) for r in pats]
        assert all(a > b for a, b in zip(rows, rows[1:]))  # strictly descending


def test_all_collinear_set():
    # four distinct positions on one line, unsorted, one of them doubled
    pts = np.array([[3.0, 6.0], [0.0, 0.0], [2.0, 4.0], [1.0, 2.0], [0.0, 0.0]])
    pats = enumerate_separator_patterns(pts)
    assert pats.shape == (8, 5)  # 3 inner cuts x 2 orientations + 2 constants
    assert np.array_equal(pats[:, 1], pats[:, 4])
    assert_matches_lp(pts)


def test_all_coincident_set():
    pts = np.array([[1.5, -2.0]] * 4)
    assert np.array_equal(enumerate_separator_patterns(pts),
                          np.array([[1] * 4, [-1] * 4], dtype=np.int8))


def test_collinear_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert is_affinely_separable(pts, [1, 1, -1])
    assert not is_affinely_separable(pts, [1, -1, 1])  # middle point blocks


def test_coincident_points_conflict():
    pts = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert not is_affinely_separable(pts, [1, -1])
    assert is_affinely_separable(pts, [1, 1])


def test_constant_labelings_always_feasible():
    pts = np.random.default_rng(1).normal(size=(6, 2))
    assert is_affinely_separable(pts, [1] * 6)
    assert is_affinely_separable(pts, [-1] * 6)


def test_three_dim_uses_lp():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    # 4 affinely independent points: every labeling separable
    for lab in product((1, -1), repeat=4):
        assert is_affinely_separable(pts, lab)


@pytest.mark.parametrize("coords", [np.eye(3), np.arange(4.0), np.zeros((2, 2, 2))],
                         ids=["3d", "1d-vector", "3-index"])
def test_rejects_non_planar(coords):
    with pytest.raises(ValueError, match="planar: need 2-d coordinates"):
        enumerate_separator_patterns(coords)
