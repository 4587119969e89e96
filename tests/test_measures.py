import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from locent import measures
from locent.classes import HypothesisClass, PointDomain, make_star_class
from locent.measures import (growth_function, star_number, vc_dimension,
                             verify_shattered, verify_star_witness)
from locent.classes import threshold_class
from locent.util import bitsets

import oracles
from conftest import random_class


def single_row_class():
    return HypothesisClass(PointDomain.of_size(3),
                           np.array([[1, -1, 1]], dtype=np.int8))


class TestVcDimension:
    def test_thresholds(self):
        res = vc_dimension(threshold_class(16))
        assert (res.value, res.exact) == (1, True)

    def test_f1(self):
        assert vc_dimension(make_star_class("F1", 3, 6)).value == 3

    def test_single_row(self):
        res = vc_dimension(single_row_class())
        assert (res.value, res.witness) == (0, ())

    def test_witness_replays(self, rng):
        for _ in range(20):
            cls = random_class(rng)
            res = vc_dimension(cls)
            assert verify_shattered(cls, res.witness)

    def test_budget_flagging(self, monkeypatch):
        cls = make_star_class("F1", 2, 10)
        monkeypatch.setattr(measures, "VC_BUDGET", 3)
        res = vc_dimension(cls)
        assert not res.exact and res.search_budget_hit
        assert res.value <= 2


class TestGrowthFunction:
    def test_thresholds(self):
        cls = threshold_class(8)
        for m in (1, 2, 3, 5):
            assert growth_function(cls, m).value == m + 1

    def test_single_row(self):
        for m in (1, 3, 10):
            assert growth_function(single_row_class(), m).value == 1

    def test_m_one_at_most_two(self, rng):
        for _ in range(10):
            assert growth_function(random_class(rng), 1).value <= 2

    def test_sauer_bound(self, rng):
        for _ in range(15):
            cls = random_class(rng)
            d = vc_dimension(cls)
            for m in (1, 2, 3):
                g = growth_function(cls, m)
                if d.exact and g.exact:
                    bound = sum(math.comb(m, i) for i in range(d.value + 1))
                    assert g.value <= bound

    def test_matches_oracle(self, rng):
        for _ in range(10):
            cls = random_class(rng, max_points=6, max_rows=10)
            for m in (1, 2, 4):
                assert growth_function(cls, m).value == oracles.brute_growth(cls, m)

    def test_starved_budget_falls_back_to_greedy(self, monkeypatch):
        cls = make_star_class("F1", 2, 6)
        brute = oracles.brute_growth(cls, 3)
        res = growth_function(cls, 3)
        assert res.exact and res.value == brute
        monkeypatch.setattr(measures, "GROWTH_BUDGET", 0)
        res = growth_function(cls, 3)
        assert not res.exact and res.search_budget_hit
        assert res.value <= brute

    def test_more_than_64_points_match_the_narrow_class(self):
        # 60 constant columns widen F1(2,8) to 68 points, past one machine word
        small = make_star_class("F1", 2, 8)
        pad = np.broadcast_to(np.where(np.arange(60) % 2, 1, -1), (small.n_rows, 60))
        cls = HypothesisClass(PointDomain.of_size(68),
                              np.hstack([small.patterns, pad]).astype(np.int8))
        assert vc_dimension(cls).value == vc_dimension(small).value == 2
        for m in (1, 2, 3):
            g = growth_function(cls, m)
            assert g.exact
            assert g.value == growth_function(small, m).value == oracles.brute_growth(cls, m)


def padded(cls, width, seed):
    """`cls` with constant columns appended up to `width` points."""
    pad = max(width - cls.n_points, 0)
    signs = np.random.default_rng(seed).choice(np.int8([-1, 1]), size=pad)
    patterns = np.hstack([cls.patterns, np.broadcast_to(signs, (cls.n_rows, pad))])
    return HypothesisClass(PointDomain.of_size(cls.n_points + pad), patterns.astype(np.int8))


class TestRowBitsets:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 6), st.one_of(st.integers(0, 70), st.sampled_from([7, 9, 63, 65, 70])),
           st.integers(0, 2 ** 32 - 1))
    def test_bit_j_is_column_j(self, rows, width, seed):
        flags = np.random.default_rng(seed).random((rows, width)) < 0.5
        assert bitsets(flags) == [sum(1 << int(j) for j in np.flatnonzero(row)) for row in flags]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000),
           st.one_of(st.integers(1, 8), st.integers(60, 70)))
    def test_padding_changes_no_measure(self, seed, width):
        rng = np.random.default_rng(seed)
        small = random_class(rng, max_points=6, max_rows=10)
        cls = padded(small, width, seed)
        labels = cls.patterns.T > 0
        for _ in range(5):
            k = int(rng.integers(1, min(cls.n_points, 4) + 1))
            pts = tuple(rng.choice(cls.n_points, size=k, replace=False).tolist())
            want = len({tuple(r) for r in cls.patterns[:, list(pts)]})
            [(block, counts)] = measures._restriction_counts(labels, [pts])
            assert block.tolist() == [list(pts)] and counts.tolist() == [want]
        d_small, d = vc_dimension(small), vc_dimension(cls)
        assert (d.value, d.witness, d.exact) == (d_small.value, d_small.witness, d_small.exact)
        for m in (1, 2):
            assert growth_function(cls, m).value == oracles.brute_growth(cls, m)


def small_class(seed, max_points=14, max_rows=60):
    """A random class of 1 to max_points points and 1 to max_rows distinct rows."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, max_points + 1))
    rows = rng.choice(np.int8([-1, 1]), size=(int(rng.integers(1, max_rows + 1)), p))
    return HypothesisClass(PointDomain.of_size(p), np.unique(rows, axis=0))


def assert_matches_the_references(cls, growth_m, vc=True):
    if vc:
        res = vc_dimension(cls)
        ref = oracles.ref_vc_dimension(cls, measures.VC_BUDGET)
        assert (res.value, res.witness, res.exact) == ref
    for m in growth_m:
        res = growth_function(cls, m)
        ref = oracles.ref_growth_function(cls, m, measures.GROWTH_BUDGET)
        assert (res.value, res.witness, res.exact) == ref


class TestBlockedCounts:
    """The blocked restriction counts give the per-subset Python-set searches'
    values, witnesses and exact flags, budgets and greedy branch included."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 3, 10, 57, 500_000]),
           st.sampled_from([0, 200_000]))
    def test_matches_the_set_searches(self, seed, vc_budget, growth_budget):
        cls = small_class(seed)
        with mock.patch.object(measures, "VC_BUDGET", vc_budget), \
                mock.patch.object(measures, "GROWTH_BUDGET", growth_budget):
            assert_matches_the_references(cls, range(1, cls.n_points + 2))

    def test_block_boundaries(self, monkeypatch):
        # F1(2,20) spans several blocks per level and scan; the budgets cut
        # its level-3 candidates inside a block and at a block's end
        cls = make_star_class("F1", 2, 20)
        per_block = measures._BLOCK_CODES // cls.n_rows
        for budget in (3, per_block - 1, per_block, 2 * per_block + 5, 500_000):
            monkeypatch.setattr(measures, "VC_BUDGET", budget)
            assert_matches_the_references(cls, (1, 2, 3))

    def test_past_62_points_ranks_the_codes(self):
        assert_matches_the_references(threshold_class(70), range(63, 71))
        rows = np.random.default_rng(7).choice(np.int8([-1, 1]), size=(40, 70))
        cls = HypothesisClass(PointDomain.of_size(70), np.unique(rows, axis=0))
        assert_matches_the_references(cls, (1, 2, 62, 63, 64, 69, 70), vc=False)

    def test_scan_memory_is_one_block(self):
        # the codes of all 34,220 subsets by 61 rows would take 16.7 MB
        cls = threshold_class(60)
        tracemalloc.start()
        try:
            res = growth_function(cls, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.value, res.witness, res.exact) == (4, (0, 1, 2), True)
        assert peak < 2 ** 20


class TestStarNumber:
    def test_thresholds(self):
        res = star_number(threshold_class(16))
        assert (res.value, res.exact) == (2, True)

    def test_f2_star_is_s(self):
        for d, s in ((2, 6), (3, 8)):
            res = star_number(make_star_class("F2", d, s))
            assert (res.value, res.exact) == (s, True)

    def test_f1_singletons(self):
        res = star_number(make_star_class("F1", 1, 5))
        assert res.value == 5
        center, pts, rows = res.witness
        assert verify_star_witness(make_star_class("F1", 1, 5), center, pts, rows)

    def test_starved_budget_keeps_a_valid_witness(self, monkeypatch):
        cls = make_star_class("F1", 1, 5)
        assert star_number(cls).exact
        monkeypatch.setattr(measures, "STAR_BUDGET", 1)
        res = star_number(cls)
        assert not res.exact and res.search_budget_hit
        center, pts, rows = res.witness
        assert len(pts) == res.value
        assert verify_star_witness(cls, center, pts, rows)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_the_numpy_reference(self, seed):
        cls = random_class(np.random.default_rng(seed), max_points=7, max_rows=16)
        res = star_number(cls)
        ref = oracles.ref_star_number(cls, measures.STAR_BUDGET)
        if ref[2]:
            assert (res.value, res.witness, res.exact) == ref
        assert res.value == oracles.brute_star(cls)
        center, pts, rows = res.witness
        assert len(pts) == res.value
        assert verify_star_witness(cls, center, pts, rows)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_skipped_centers_match_the_numpy_reference(self, seed):
        # wide classes, where most centers have no more flippable columns
        # than the best set has points and are skipped before the chain bound
        cls = random_class(np.random.default_rng(seed), max_points=12, max_rows=40)
        res = star_number(cls)
        assert (res.value, res.witness, res.exact) == oracles.ref_star_number(
            cls, measures.STAR_BUDGET)

    def test_star_class_builds_one_chain_bound(self):
        # F1(2,32): the all-minus center's star set of 32 points reaches
        # every other center's count of flippable columns
        cls = make_star_class("F1", 2, 32)
        with mock.patch.object(measures, "_chain_bound", wraps=measures._chain_bound) as bound:
            res = star_number(cls)
        assert bound.call_count == 1
        assert (res.value, res.witness, res.exact) == oracles.ref_star_number(
            cls, measures.STAR_BUDGET)

    def test_chain_bound_certifies_long_thresholds(self):
        for n in (256, 1024):
            res = star_number(threshold_class(n))
            assert (res.value, res.exact) == (2, True)
            assert verify_star_witness(threshold_class(n), *res.witness)

    def test_star_sets_beyond_64_points(self):
        cls = make_star_class("F1", 1, 70)
        res = star_number(cls)
        assert (res.value, res.exact) == (70, True)
        assert verify_star_witness(cls, *res.witness)

    def test_witness_replays(self, rng):
        for _ in range(20):
            cls = random_class(rng)
            res = star_number(cls)
            center, pts, rows = res.witness
            if pts:
                assert verify_star_witness(cls, center, pts, rows)


class TestAgainstOracles:
    def test_vc_and_star(self, rng):
        for _ in range(12):
            cls = random_class(rng, max_points=6, max_rows=10)
            assert vc_dimension(cls).value == oracles.brute_vc(cls)
            assert star_number(cls).value == oracles.brute_star(cls)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_d_le_s(self, seed):
        cls = random_class(np.random.default_rng(seed), max_points=6, max_rows=10)
        assert vc_dimension(cls).value <= star_number(cls).value

    def test_d_le_s_on_generators(self):
        classes = [threshold_class(12), make_star_class("F1", 2, 6),
                   make_star_class("F2", 2, 6), make_star_class("F3", 2, 6, grid=4)]
        for cls in classes:
            assert vc_dimension(cls).value <= star_number(cls).value
