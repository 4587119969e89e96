import math
import tracemalloc
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locent import doubling, geometry, multisets, packing, util
from locent.chains import _chain, _chain_plan
from locent.classes import (DomainDistribution, HypothesisClass, PointDomain,
                            circle_separator_class, make_massart_instance,
                            make_star_class, threshold_class)
from locent.doubling import _greedy_cover_sizes, alexander_capacity, doubling_dimension
from locent.geometry import (_local_profile, gamma_loc, gamma_star, global_packing_number,
                             local_packing_number, packing_log_vc_bound,
                             pseudoconvexity_constant)
from locent.measures import star_number, vc_dimension
from locent.multisets import _blocks, _canonical_multisets, project
from locent.packing import _exact_pack, _greedy_pack, _members, max_packing, verify_packing
from locent.util import bitsets, hamming_matrix, tlog

import oracles
from conftest import random_class


def cube_class(k=3):
    pats = np.array(list(product((-1, 1), repeat=k)), dtype=np.int8)
    return HypothesisClass(PointDomain.of_size(k), pats)


class TestHammingMatrix:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 10), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_matches_brute(self, rows, points, weighted, seed):
        g = np.random.default_rng(seed)
        pats = g.choice(np.int8([-1, 1]), size=(rows, points))
        weights = g.integers(1, 50, size=points) if weighted else None
        assert hamming_matrix(pats, weights).tolist() == oracles.brute_hamming(pats, weights)

    @pytest.mark.parametrize("pats,weights", [
        ([[1, 1], [-1, 1]], [2 ** 24 + 1, 1]),        # float32 sums the total to 2^24
        ([[1, 1, 1], [-1, 1, -1]], [2 ** 23, 2 ** 23, 3]),  # ... and this one to 2^24 + 4
    ])
    def test_exact_past_float32_total(self, pats, weights):
        pats = np.array(pats, dtype=np.int8)
        assert hamming_matrix(pats, weights).tolist() == oracles.brute_hamming(pats, weights)
        assert hamming_matrix(pats, np.array(weights)).tolist() == oracles.brute_hamming(pats, weights)


class TestMaxPacking:
    def test_single_pattern(self):
        for eps in (0, 1, 5):
            assert max_packing(np.array([[1, -1, 1]]), eps).size == 1

    @pytest.mark.parametrize("patterns", [[[0, 0], [1, 1]], [[0.5, -1.0], [1.0, -1.0]]],
                             ids=["zero-one", "real"])
    def test_non_sign_entries_rejected(self, patterns):
        # the Hamming kernel reads +-1 entries: [0, 0] and [1, 1] differ in
        # both coordinates, yet the kernel puts them at distance 1
        with pytest.raises(ValueError, match="\\+-1"):
            max_packing(np.array(patterns), 1)

    def test_cube_eps0_keeps_all(self):
        res = max_packing(cube_class().patterns, 0)
        assert res.size == 8 and res.mode == "exact"

    def test_exact_matches_brute(self, rng):
        for _ in range(12):
            pats = random_class(rng, max_points=6, max_rows=8).patterns
            d = hamming_matrix(pats)
            for eps in (0, 1, 2, 3):
                res = max_packing(pats, eps)
                assert res.mode == "exact"
                assert res.size == oracles.brute_max_packing(
                    oracles.pairwise_dists(pats), eps)
                assert verify_packing(d, eps, res.witness)

    def test_greedy_is_valid_packing_and_cover(self, rng):
        for _ in range(10):
            pats = random_class(rng).patterns
            d = hamming_matrix(pats)
            for eps in (0, 1, 2):
                witness = _greedy_pack(bitsets(d <= eps), (1 << len(d)) - 1)
                assert verify_packing(d, eps, witness)
                # maximal packing doubles as an eps-cover
                cover_dist = d[:, witness].min(axis=1)
                assert np.all(cover_dist <= eps)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_in_eps(self, seed):
        pats = random_class(np.random.default_rng(seed)).patterns
        sizes = [max_packing(pats, e).size for e in range(0, pats.shape[1] + 1)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_budget_downgrades_to_greedy(self, monkeypatch):
        # row i is +1 on points i and i+1 (mod 5), so at eps=2 the conflict
        # graph is a 5-cycle: its maximum packing is 2 but its clique cover
        # is 3, so the root bound cannot settle it in one node
        pats = -np.ones((5, 5), dtype=np.int8)
        for i in range(5):
            pats[i, [i, (i + 1) % 5]] = 1
        assert max_packing(pats, 2).size == 2
        monkeypatch.setattr(packing, "PACK_NODE_BUDGET", 1)
        res = max_packing(pats, 2)
        assert res.mode == "greedy" and res.budget_hit


def weighted_projection(seed, max_points=6, max_rows=12, max_draws=9):
    """Projection of a random class onto a random multiset (repeats give weights)."""
    rng = np.random.default_rng(seed)
    cls = random_class(rng, max_points=max_points, max_rows=max_rows)
    draws = rng.integers(0, cls.n_points, size=int(rng.integers(1, max_draws + 1)))
    return project(cls, draws), rng


def brute_profile_size(proj, h, eps):
    """Largest packing over every ball of one radius of a local profile."""
    radius, sep = geometry._discretize(eps, h, proj.size)
    d = proj.dists
    balls = (np.nonzero(row <= radius)[0] for row in d)
    return max(oracles.brute_max_packing(d[np.ix_(b, b)], sep) for b in balls)


class TestPackingCore:
    """The conflict-bitset core against the numpy routines it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_greedy_and_exact_match_reference(self, seed):
        proj, rng = weighted_projection(seed)
        d = proj.dists
        for eps in range(proj.size + 1):
            subset = np.nonzero(rng.random(proj.n_patterns) < 0.7)[0]
            ball = sum(1 << int(i) for i in subset)
            conflicts = bitsets(d <= eps)
            assert _members(ball) == subset.tolist()
            assert _greedy_pack(conflicts, ball) == oracles.ref_greedy_pack(d, eps, subset)
            assert (_exact_pack(conflicts, ball, 200_000)
                    == oracles.ref_exact_pack(d, eps, subset, 200_000))
            for budget in (1, 4):
                # the bounds prune only what cannot beat the incumbent, so a
                # starved search does no worse than the reference's
                witness, certified = _exact_pack(conflicts, ball, budget)
                ref_witness, ref_certified = oracles.ref_exact_pack(d, eps, subset, budget)
                if ref_certified:
                    assert (witness, certified) == (ref_witness, True)
                assert len(witness) >= len(ref_witness)
                if certified:
                    assert len(witness) == oracles.brute_max_packing(
                        d[np.ix_(subset, subset)], eps)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_beat_keeps_every_larger_witness(self, seed):
        # an incumbent of size beat only prunes what cannot beat it, so a
        # maximum above beat is the witness found without it
        proj, rng = weighted_projection(seed)
        d = proj.dists
        for eps in range(proj.size + 1):
            subset = np.nonzero(rng.random(proj.n_patterns) < 0.7)[0]
            ball = sum(1 << int(i) for i in subset)
            conflicts = bitsets(d <= eps)
            for budget in (200_000, 4, 1):
                plain, plain_certified = _exact_pack(conflicts, ball, budget)
                for beat in range(len(subset) + 1):
                    witness, certified = _exact_pack(conflicts, ball, budget, beat)
                    assert certified or not plain_certified
                    if plain_certified and len(plain) > beat:
                        assert witness == plain
                    elif plain_certified:
                        assert len(witness) <= beat

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_local_profile_matches_reference(self, seed):
        # radii run past the largest distance, so every grid has saturated balls
        proj, _ = weighted_projection(seed)
        grid = list(range(1, proj.size + 2))
        for h in (1.0, 0.5, 0.3):
            for exact in (True, False):
                for budget in (None, 1, 0):
                    with pytest.MonkeyPatch.context() as m:
                        if budget is not None:
                            m.setattr(packing, "PACK_NODE_BUDGET", budget)
                        got = _local_profile(proj, h, grid, exact)
                    # with no node to spend, no branch and bound is certified
                    assert not (exact and budget == 0 and got[1])
                    want = oracles.ref_local_profile(proj, h, grid, exact, node_budget=budget)
                    if budget is None or not exact or want[1]:
                        assert list(got[0].items()) == list(want[0].items())
                        assert got[1] == want[1]
                        continue
                    # starved: never smaller, and what is certified is the maximum
                    assert list(got[0]) == list(want[0])
                    assert all(got[0][e][0] >= want[0][e][0] for e in grid)
                    if got[1]:
                        assert all(got[0][e][0] == brute_profile_size(proj, h, e) for e in grid)

    def test_max_packing_greedy_is_reference_greedy(self, rng):
        for _ in range(10):
            pats = random_class(rng).patterns
            d = hamming_matrix(pats)
            for eps in (0, 1, 2):
                witness = _greedy_pack(bitsets(d <= eps), (1 << len(d)) - 1)
                assert witness == oracles.ref_greedy_pack(d, eps)

    def test_one_fallback_for_an_exhausted_budget(self, monkeypatch):
        # at separation 2 the greedy packing is the first row alone, and eight
        # branch-and-bound nodes find a packing of two without certifying it
        pats = np.array([[-1, 1, -1, -1], [-1, 1, -1, 1], [-1, 1, 1, 1],
                         [1, -1, -1, -1], [1, 1, -1, -1], [1, 1, -1, 1]], dtype=np.int8)
        proj = project(HypothesisClass(PointDomain.of_size(4), pats), range(4))
        assert proj.size == 4 and int(proj.dists.max()) == 4
        greedy = _greedy_pack(bitsets(proj.dists <= 2), (1 << proj.n_patterns) - 1)
        for budget in range(12):
            monkeypatch.setattr(packing, "PACK_NODE_BUDGET", budget)
            # eps=4 at h=1: the ball of radius 4 holds every pattern
            prof, local_exact = _local_profile(proj, 1.0, [4], exact=True)
            res = max_packing(proj.patterns, 2)
            assert (prof[4][2], local_exact) == (res.witness, res.exact)
            assert verify_packing(proj.dists, 2, res.witness)
            assert res.size >= len(greedy)
            if budget == 8:
                assert not res.exact and res.size > len(greedy)

    def test_zero_node_budget_is_not_the_default(self, monkeypatch):
        # a budget of 0 stops every branch and bound at its root
        proj = project(make_star_class("F1", 2, 6), range(6))
        _, certified = _local_profile(proj, 1.0, [1, 2, 3], exact=True)
        assert certified
        monkeypatch.setattr(packing, "PACK_NODE_BUDGET", 0)
        _, certified = _local_profile(proj, 1.0, [1, 2, 3], exact=True)
        assert not certified


def surplus_projection(seed):
    """Projection of a random class onto more draws than it has points, so
    that weights repeat and distances take few values."""
    rng = np.random.default_rng(seed)
    cls = random_class(rng, max_points=6, max_rows=12)
    n = cls.n_points + int(rng.integers(1, 2 * cls.n_points + 1))
    return project(cls, rng.integers(0, cls.n_points, size=n))


def distance_class(proj, r):
    """How many distinct distances of the projection are at most r."""
    return len({d for d in proj.dists.ravel().tolist() if d <= r})


class TestDistanceClasses:
    """Radii whose ball radius and separation select the same distances share
    one packing; sharing must change no entry and no flag."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_local_profile_matches_per_radius_and_reference(self, seed):
        proj = surplus_projection(seed)
        grid = list(range(1, proj.size + 2))
        for h in (1.0, 0.5, 0.3):
            for exact in (True, False):
                for budget in (None, 1, 4, 0):
                    with pytest.MonkeyPatch.context() as m:
                        if budget is not None:
                            m.setattr(packing, "PACK_NODE_BUDGET", budget)
                        got = _local_profile(proj, h, grid, exact)
                        alone = [_local_profile(proj, h, [eps], exact) for eps in grid]
                    assert not (exact and budget == 0 and got[1])  # no node to spend
                    # one radius at a time, starved branch and bound included
                    assert list(got[0].items()) == [item for prof, _ in alone
                                                    for item in prof.items()]
                    assert got[1] == all(certified for _, certified in alone)
                    want = oracles.ref_local_profile(proj, h, grid, exact, node_budget=budget)
                    if budget is None or not exact or want[1]:
                        assert list(got[0].items()) == list(want[0].items())
                        assert got[1] == want[1]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_global_profile_matches_per_gamma(self, seed):
        proj = surplus_projection(seed)
        gammas = list(range(1, proj.size + 2))
        for exact in (True, False):
            for budget in (None, 1, 4, 0):
                with pytest.MonkeyPatch.context() as m:
                    if budget is not None:
                        m.setattr(packing, "PACK_NODE_BUDGET", budget)
                    got = geometry._global_profile(proj, gammas, exact)
                    alone = {g: packing._packing(proj.dists, g, exact) for g in gammas}
                assert not (exact and budget == 0 and got[1])  # no node to spend
                assert got == ({g: (res.size, res) for g, res in alone.items()},
                               all(res.exact for res in alone.values()))

    @pytest.mark.parametrize("exact", [True, False])
    def test_one_pack_per_class_and_center(self, monkeypatch, exact):
        # F1(2,6) with every point drawn four times: distances are multiples
        # of 4, so many radii share their distance classes
        proj = project(make_star_class("F1", 2, 6), list(range(6)) * 4)
        h, grid = 0.5, list(range(1, 13))
        calls = []
        pack = packing._pack

        def counted(*args):
            calls.append(args[1])
            return pack(*args)

        # the local profile calls _pack from geometry, the global one through _packing
        for module in (geometry, packing):
            monkeypatch.setattr(module, "_pack", counted)
        keys = {}
        for eps in grid:
            radius, sep = geometry._discretize(eps, h, proj.size)
            keys.setdefault((distance_class(proj, radius), distance_class(proj, sep)), eps)
        for eps in keys.values():  # each key's first radius alone
            _local_profile(proj, h, [eps], exact)
        per_key = len(calls)
        for eps in grid:
            _local_profile(proj, h, [eps], exact)
        per_radius = len(calls) - per_key
        calls.clear()
        _local_profile(proj, h, grid, exact)
        assert len(keys) < len(grid) and per_key < per_radius
        assert len(calls) == per_key <= len(keys) * proj.n_patterns

        calls.clear()
        geometry._global_profile(proj, grid, exact)
        assert len(calls) == len({distance_class(proj, g) for g in grid}) < len(grid)


class TestExactBounds:
    """The clique-cover and dual cover bounds against the brute oracles."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_max_packing_matches_brute(self, seed):
        rng = np.random.default_rng(seed)
        pats = np.unique(rng.choice(np.int8([-1, 1]), size=(int(rng.integers(5, 41)),
                                                            int(rng.integers(3, 12)))), axis=0)
        d = hamming_matrix(pats)
        for eps in range(4):
            res = max_packing(pats, eps)
            assert res.mode == "exact"
            assert res.size == oracles.brute_max_packing(d, eps)
            assert verify_packing(d, eps, res.witness)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000), st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5]))
    def test_doubling_matches_brute(self, seed, gamma_frac):
        # a starved budget leaves about one class in six uncertified here
        cls = random_class(np.random.default_rng(seed), max_points=7, max_rows=20)
        px = DomainDistribution.uniform(cls.n_points)
        want = oracles.brute_doubling(cls, px, gamma_frac)
        res = doubling_dimension(cls, px, gamma_frac)
        assert res.exact and res.value == pytest.approx(want)
        exact_cover = doubling._exact_cover_size

        def spy(covers, greedy, node_budget):
            settled.append(math.ceil(covers.shape[1] / covers.sum(axis=1).max()) >= greedy)
            return exact_cover(covers, greedy, node_budget)

        for budget in (1, 0):
            settled = []  # per exact cover: does the ceil bound settle it?
            with pytest.MonkeyPatch.context() as m:
                m.setattr(doubling, "_exact_cover_size", spy)
                m.setattr(doubling, "COVER_NODE_BUDGET", budget)
                res = doubling_dimension(cls, px, gamma_frac)
            assert not res.exact or res.value == pytest.approx(want)
            # with no node to spend, only the covers that the ceil bound
            # settles are certified; about half the classes here branch
            assert budget or res.exact == all(settled)

    def test_chain_501_is_certified(self):
        # at eps=1 the threshold chain's conflict graph is a path; the node
        # budget alone cannot certify it
        pats = threshold_class(500).patterns
        res = max_packing(pats, 1)
        assert (res.mode, res.budget_hit, res.size) == ("exact", False, 251)
        assert verify_packing(hamming_matrix(pats), 1, res.witness)

    def test_threshold_profile_is_certified(self):
        # every center and radius of the 65-pattern thresholds-64 projection
        proj = project(threshold_class(64), range(64))
        prof, certified = _local_profile(proj, 0.125, list(range(1, 9)), exact=True)
        assert certified
        assert [prof[eps][0] for eps in range(1, 9)] == [9, 17, 17, 22, 17, 17, 13, 13]


class TestGlobalPacking:
    def test_gamma_at_least_n_gives_one(self):
        cls = make_star_class("F1", 1, 4)
        for gamma in (4, 5, 9):
            assert global_packing_number(cls, gamma, 4, search="exact").size == 1

    def test_f1_matches_brute(self):
        # the all-minus row sits at distance 1 from each singleton, so the
        # four singletons are the largest 1-separated family on 4 points
        cls = make_star_class("F1", 1, 4)
        res = global_packing_number(cls, 1, 4, search="exact")
        assert res.exact
        assert res.size == oracles.brute_global_packing(cls, 1, 4) == 4

    def test_random_matches_brute(self, rng, monkeypatch):
        starved = []
        for _ in range(6):
            cls = random_class(rng, max_points=5, max_rows=8)
            for gamma, n in ((1, 2), (2, 3)):
                brute = oracles.brute_global_packing(cls, gamma, n)
                res = global_packing_number(cls, gamma, n, search="exact")
                assert res.exact
                assert res.size == brute
                # starved packings may lose certification, but exact stays a proof
                with monkeypatch.context() as m:
                    m.setattr(packing, "PACK_NODE_BUDGET", 1)
                    res = global_packing_number(cls, gamma, n, search="exact")
                assert not res.exact or res.size == brute
                starved.append(not res.exact)
        assert any(starved)  # one node certifies some of these packings, not all

    def test_uncertified_loser_is_not_exact(self, monkeypatch):
        # with one node per branch and bound, the winning multiset's packing
        # (size 2) is certified by its bound, but another multiset's packing
        # of true size 3 runs out of budget at its greedy size 2
        pats = np.array([[1, 1, -1], [-1, 1, -1], [-1, -1, -1], [1, 1, 1], [1, -1, -1]],
                        dtype=np.int8)
        cls = HypothesisClass(PointDomain.of_size(3), pats)
        assert oracles.brute_global_packing(cls, 1, 3) == 3
        monkeypatch.setattr(packing, "PACK_NODE_BUDGET", 1)
        res = global_packing_number(cls, 1, 3, search="exact")
        assert (res.size, res.exact) == (2, False)

    def test_thresholds_order_n_over_gamma(self):
        # chain structure: max gamma-packing on n distinct points is
        # floor(n/(gamma+1)) + 1, i.e. of order n/gamma
        cls = threshold_class(32)
        for gamma in (1, 2, 4, 8):
            res = global_packing_number(cls, gamma, 32, search="hill_climb", seed=3)
            assert res.size == 32 // (gamma + 1) + 1


class TestSearchNames:
    def test_unknown_search_rejected(self):
        # the chain route (thresholds) validates search as the multiset search does
        calls = [call for cls in (make_star_class("F1", 1, 4), threshold_class(4)) for call in (
            lambda s, cls=cls: global_packing_number(cls, 1, 3, search=s),
            lambda s, cls=cls: gamma_star(cls, 0.5, 3, search=s),
            lambda s, cls=cls: local_packing_number(cls, 1, 3, 1.0, search=s),
            # gamma > n*h: the radius range is empty
            lambda s, cls=cls: local_packing_number(cls, 3, 3, 0.5, search=s),
            lambda s, cls=cls: gamma_loc(cls, 0.5, 0.5, 3, search=s))]
        for call in calls:
            for search in ("exact", "auto", "hill_climb"):
                call(search)
            with pytest.raises(ValueError, match="unknown search 'exactt'"):
                call("exactt")


def planted_block_class(rng, max_points=6, max_rows=5):
    """A random row set closed under every permutation of a random block of
    points, so that block's points are interchangeable."""
    p = int(rng.integers(2, max_points + 1))
    block = np.sort(rng.choice(p, size=int(rng.integers(2, p + 1)), replace=False))
    rows = set()
    for row in rng.choice(np.int8([-1, 1]), size=(int(rng.integers(1, max_rows + 1)), p)):
        for perm in permutations(block):
            image = row.copy()
            image[list(perm)] = row[block]
            rows.add(image.tobytes())
    pats = np.array([np.frombuffer(r, dtype=np.int8) for r in sorted(rows)])
    return HypothesisClass(PointDomain.of_size(p), pats), tuple(block.tolist())


def random_chain(rng, max_points=6):
    """A random chain class: each point flips at one step of a row chain or
    never (a constant column), with columns sign-flipped and rows shuffled."""
    m = int(rng.integers(1, max_points + 1))
    steps = int(rng.integers(0, m + 1))
    step = rng.permutation(np.r_[np.arange(1, steps + 1),
                                 rng.integers(0, steps + 1, size=m - steps)])
    pats = np.where(step[None, :] - 1 < np.arange(steps + 1)[:, None], 1, -1)
    pats = pats * rng.choice([-1, 1], size=m)
    return HypothesisClass(PointDomain.of_size(m), rng.permutation(pats).astype(np.int8))


def broken_chain(n):
    """Thresholds on n points plus a row (+ on the second point alone) that
    is not a prefix, so the class is no chain and takes the multiset search."""
    pats = threshold_class(n).patterns
    extra = np.where(np.arange(n) == 1, 1, -1).astype(np.int8)
    return HypothesisClass(PointDomain.of_size(n), np.vstack([pats, extra]))


def assert_path_matches_gram(cls, n, gammas=range(13)):
    """Chain global packings certified on path positions equal those the
    packing core certifies on the Gram of each planned multiset's
    projection: sizes, witnesses, flags and row maps, both pooled and
    through global_packing_number and gamma_star's scans."""
    stars = [gamma_star(cls, c, n) for c in (1.0, 0.5, 0.25)]
    top = max([*gammas, *(len(fp.scan) for fp in stars)])
    pooled, exact = geometry._global_search(cls, n, range(top + 1), True, 0, None)
    assert exact
    for g, (size, packing, ms, row_map) in pooled.items():
        proj = project(cls, ms)
        prof, certified = geometry._global_profile(proj, [g], True)
        assert certified and (size, packing) == prof[g]
        assert row_map.tolist() == proj.row_map.tolist()
    for g in gammas:
        assert global_packing_number(cls, g, n) == geometry.GlobalPackingResult(
            packing=pooled[g][1], multiset=pooled[g][2], exact=True)
    for fp in stars:
        assert fp.exact
        assert [(row["witness_size"], row["exact"]) for row in fp.scan] == [
            (pooled[g][0], True) for g in range(1, len(fp.scan) + 1)]


def partition_blocks(rng, m):
    """A random partition of range(m) into ascending blocks, in order of
    their first points."""
    labels = rng.integers(0, m, size=m)
    blocks = {}
    for i, label in enumerate(labels.tolist()):
        blocks.setdefault(label, []).append(i)
    return sorted(tuple(b) for b in blocks.values())


class TestInterchangeablePoints:
    """Blocks of interchangeable points and the multisets enumerated up to
    permutations within them."""

    @pytest.mark.parametrize("name, cls, sizes", [
        ("F1(2,6)", make_star_class("F1", 2, 6), [6]),
        ("F2(3,8)", make_star_class("F2", 3, 8), [6, 2]),
        ("F3(2,6,4)", make_star_class("F3", 2, 6, 4), [4]),
        ("thresholds 32", threshold_class(32), []),
        ("circle 10", circle_separator_class(10), []),
    ])
    def test_blocks_match_reference(self, name, cls, sizes):
        blocks = _blocks(cls)
        assert blocks == oracles.ref_blocks(cls)
        assert sorted((len(b) for b in blocks if len(b) > 1), reverse=True) == sizes

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_planted_blocks_match_reference(self, seed):
        cls, planted = planted_block_class(np.random.default_rng(seed))
        blocks = _blocks(cls)
        assert blocks == oracles.ref_blocks(cls)
        assert any(set(planted) <= set(b) for b in blocks)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 6), st.integers(1, 4))
    def test_canonical_multisets_are_orbit_minima(self, seed, m, n):
        blocks = partition_blocks(np.random.default_rng(seed), m)
        assert list(_canonical_multisets(blocks, n)) == oracles.ref_orbit_minima(blocks, n)

    def test_singleton_blocks_enumerate_every_multiset(self):
        for m in range(1, 6):
            for n in range(1, 6):
                got = list(_canonical_multisets([(i,) for i in range(m)], n))
                assert got == list(combinations_with_replacement(range(m), n))

    def test_f1_orbits_are_partitions(self):
        # one block of 6 points: a multiset of 6 is a partition of 6
        blocks = _blocks(make_star_class("F1", 2, 6))
        assert len(list(_canonical_multisets(blocks, 6))) == 11

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000), st.integers(2, 4))
    def test_pooled_results_match_unreduced_enumeration(self, seed, n):
        cls, _ = planted_block_class(np.random.default_rng(seed))

        def results():
            return [repr(gamma_loc(cls, 0.5, 1.0, n, search="exact")),
                    repr(gamma_star(cls, 0.5, n, search="exact")),
                    repr(local_packing_number(cls, 1, n, 1.0, search="exact")),
                    repr(global_packing_number(cls, 1, n, search="exact"))]

        reduced = results()
        blocks, pooled = multisets._blocks, []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(multisets, "_blocks", lambda c: pooled.append(blocks(c)) or
                      [(i,) for i in range(c.n_points)])
            assert results() == reduced
        # a chain, or a search past MULTISET_WORK, never reaches _blocks;
        # where the search does, the planted block pools its points there
        assume(pooled)
        assert all(any(len(b) > 1 for b in found) for found in pooled)

    def test_hill_climb_skips_blocks(self, monkeypatch):
        def fail(cls):
            raise AssertionError("blocks computed for a hill climb")

        monkeypatch.setattr(multisets, "_blocks", fail)
        fp = gamma_star(broken_chain(2048), 0.5, 8, search="auto")
        assert not fp.exact


class TestGammaStar:
    def test_single_row_is_inverse_c(self):
        cls = HypothesisClass(PointDomain.of_size(4),
                              np.array([[1, 1, -1, -1]], dtype=np.int8))
        for c in (1.0, 0.5, 0.25):
            assert gamma_star(cls, c, 8).gamma == int(1 / c)

    def test_f1_exact_value(self):
        # frozen from the exhaustive oracle: packings by gamma are
        # {1:16, 2:4, 3:4, 4:2, 5:2, 6:1}, so the fixed point at c=1/2 is 2
        fp = gamma_star(make_star_class("F1", 2, 6), 0.5, 6, search="exact")
        assert fp.exact and fp.gamma == 2
        assert [r["witness_size"] for r in fp.scan[:3]] == [16, 4, 4]

    def test_thresholds_log_growth(self):
        ratios = []
        for n in (64, 128, 256, 512):
            fp = gamma_star(threshold_class(n), 0.5, n, search="hill_climb", seed=1)
            ratios.append(fp.gamma / math.log(n))
        assert max(ratios) / min(ratios) <= 4.0

    def test_scan_table_columns(self):
        fp = gamma_star(threshold_class(8), 0.5, 8, search="exact")
        row = fp.scan[0]
        assert set(row) == {"gamma", "log_packing", "satisfied", "witness_size", "exact"}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_scan_row_is_the_global_packing(self, seed):
        # one pooled search serves the whole scan: row g holds
        # global_packing_number at g, and the brute maximum where both are exact
        rng = np.random.default_rng(seed)
        cls = random_class(rng, max_points=5, max_rows=8)
        n = int(rng.integers(1, 5))
        fp = gamma_star(cls, float(rng.choice([1.0, 0.5, 0.25])), n, search="exact")
        for row in fp.scan:
            gp = global_packing_number(cls, row["gamma"], n, search="exact")
            assert (row["witness_size"], row["exact"]) == (gp.size, gp.packing.exact)
            if fp.exact and gp.exact:
                assert gp.size == oracles.brute_global_packing(cls, row["gamma"], n)


class TestHillClimbPooling:
    """Frozen hill-climb results: they pin the start order, the swap order
    and the first-visited tie-breaking of the pooled multiset search.
    Thresholds take the chain route, so one extra row keeps them here."""

    THR64_MULTISET = (0, 4, 8, 13, 17, 21, 25, 29, 34, 38, 42, 46, 50, 55, 59, 63)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_thresholds_64(self, seed):
        cls = broken_chain(64)
        res = global_packing_number(cls, 2, 16, search="hill_climb", seed=seed)
        assert (res.multiset, res.packing.witness, res.size, res.exact) == (
            self.THR64_MULTISET, (0, 3, 6, 9, 12, 15), 6, False)
        fp = gamma_star(cls, 0.5, 16, search="hill_climb", seed=seed)
        assert fp.gamma == 3 and not fp.exact
        assert [r["witness_size"] for r in fp.scan] == [9, 6, 5, 4, 3, 3, 3, 2]

    @pytest.mark.parametrize("seed, multiset, witness, scan", [
        (0, (3, 3, 3, 5, 5, 5, 6, 6, 7, 7), (0, 5, 6, 7, 8, 9, 10),
         [17, 12, 11, 7, 4, 2, 2]),
        (1, (2, 2, 3, 3, 4, 4, 5, 5, 6, 6), (0, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
         [17, 16, 11, 4, 2, 2, 2]),
    ])
    def test_f1_d2_s8(self, seed, multiset, witness, scan):
        cls = make_star_class("F1", 2, 8)
        res = global_packing_number(cls, 3, 10, search="hill_climb", seed=seed)
        assert (res.multiset, res.packing.witness, res.size) == (multiset, witness,
                                                                  len(witness))
        fp = gamma_star(cls, 0.5, 12, search="hill_climb", seed=seed)
        assert fp.gamma == 3 and [r["witness_size"] for r in fp.scan] == scan
        assert {r["exact"] for r in fp.scan} == {False}


class TestLocalPacking:
    def test_empty_radius_range_collapses(self):
        cls = make_star_class("F1", 2, 6)
        res = local_packing_number(cls, 4, 6, 0.5)  # gamma > n*h = 3
        assert res.value == 1 and res.eps is None

    def test_f1_exact_value(self):
        # frozen from the exhaustive triple-max oracle (45 s run): 16
        res = local_packing_number(make_star_class("F1", 2, 6), 2, 6, 1.0,
                                   search="exact")
        assert res.exact and res.value == 16

    def test_small_matches_brute(self, rng):
        for _ in range(5):
            cls = random_class(rng, max_points=5, max_rows=8)
            res = local_packing_number(cls, 1, 3, 1.0, search="exact")
            assert res.value == oracles.brute_local_packing(cls, 1, 3, 1.0)

    def test_thresholds_bounded(self):
        for n in (32, 64):
            cls = threshold_class(n)
            for gamma in (1, 2, 4):
                res = local_packing_number(cls, gamma, n, 1.0,
                                           search="hill_climb", seed=2)
                assert res.value <= 5

    def test_argmax_metadata_replays(self):
        cls = make_star_class("F1", 2, 6)
        res = local_packing_number(cls, 2, 6, 1.0, search="exact")
        proj = project(cls, res.multiset)
        crow = [i for i, r in enumerate(proj.row_map) if r == res.center_row]
        assert crow, "center row must appear in the projection"
        dists = proj.dists
        members = [int(np.nonzero(proj.row_map == r)[0][0]) for r in res.witness]
        assert all(dists[crow[0], m] <= res.ball_radius for m in members)
        assert verify_packing(dists, res.separation, members)


class TestGammaLoc:
    def test_floor_guarantee(self, rng):
        for _ in range(8):
            cls = random_class(rng, max_points=5, max_rows=6)
            for h in (1.0, 0.5, 0.3):
                fp = gamma_loc(cls, h, h, 4, search="exact")
                assert h * fp.gamma >= 0.5 - 1e-12

    def test_thresholds_h_one_is_constant(self):
        for n in (64, 128, 256):
            fp = gamma_loc(threshold_class(n), 1.0, 1.0, n,
                           search="hill_climb", seed=1)
            assert fp.gamma <= 4

    def test_thresholds_noise_scaling(self):
        n = 256
        cls = threshold_class(n)
        gammas = {}
        for h in (1.0, 0.5, 0.25):
            gammas[h] = gamma_loc(cls, h, h, n, search="hill_climb", seed=1).gamma
        assert gammas[1.0] < gammas[0.5] < gammas[0.25]

    def test_h1_below_hh(self, rng):
        # realizable fixed point never exceeds the noisy one
        for cls in (threshold_class(32), make_star_class("F1", 2, 6),
                    random_class(rng, max_points=5, max_rows=8)):
            a = gamma_loc(cls, 1.0, 1.0, 16, search="hill_climb", seed=0).gamma
            b = gamma_loc(cls, 0.5, 0.5, 16, search="hill_climb", seed=0).gamma
            assert a <= b

    def test_scan_values_non_increasing(self, rng):
        # the local packing number takes a sup over radii >= gamma, so it
        # cannot increase with gamma
        for cls in (threshold_class(32), random_class(rng, max_points=6, max_rows=8)):
            fp = gamma_loc(cls, 0.5, 0.5, 16, search="hill_climb", seed=4)
            sizes = [r["witness_size"] for r in fp.scan]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_scan_row_is_the_local_packing(self, seed):
        # one pooled search serves both entry points: where both are exact,
        # row g holds local_packing_number at g, certificate included when
        # the packing has more than the center
        rng = np.random.default_rng(seed)
        cls = random_class(rng, max_points=5, max_rows=8)
        n = int(rng.integers(1, 5))
        h = float(rng.choice([1.0, 0.5, 0.3]))
        fp = gamma_loc(cls, float(rng.choice([1.0, 0.5, 0.25])), h, n, search="exact")
        fields = ("eps", "center_row", "multiset", "witness", "ball_radius", "separation")
        for row in fp.scan:
            lp = local_packing_number(cls, row["gamma"], n, h, search="exact")
            if fp.exact and lp.exact:
                assert lp.value == row["witness_size"]
                if row["witness_size"] > 1:
                    assert {k: getattr(lp, k) for k in fields} == {k: row[k] for k in fields}

    def test_explicit_entropy_bound(self):
        # hard form of the VC/star envelope on an exactly solved class
        cls = make_star_class("F1", 2, 6)
        d = vc_dimension(cls).value
        s = star_number(cls).value
        fp = gamma_loc(cls, 1.0, 1.0, 6, search="exact")
        assert fp.exact
        for row in fp.scan:
            assert row["log_packing"] <= packing_log_vc_bound(d, s, 6, row["gamma"], 1.0) + 1e-9


def assert_scan_certified(cls, fp):
    """Each gamma_loc scan row that names a witness replays on its
    multiset's projection: pairwise separated, all within the ball."""
    for row in fp.scan:
        if not row["witness"]:
            continue
        support, counts = np.unique(np.asarray(row["multiset"]), return_counts=True)
        rows = [row["center_row"], *row["witness"]]
        d = hamming_matrix(cls.patterns[rows][:, support], weights=counts)
        assert len(row["witness"]) == row["witness_size"]
        assert verify_packing(d[1:, 1:], row["separation"], range(len(row["witness"])))
        assert (d[0, 1:] <= row["ball_radius"]).all()


class TestChainRoute:
    """Chain classes, thresholds among them, take closed forms on the path
    that every projection is, each certified on one planned multiset."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_brute(self, seed):
        rng = np.random.default_rng(seed)
        cls = random_chain(rng)
        n = int(rng.integers(1, 7))
        h = float(rng.choice([1.0, 0.5, 0.3]))
        gamma = int(rng.integers(0, n + 1))
        assert _chain(cls) is not None
        res = global_packing_number(cls, gamma, n, search="hill_climb")
        assert res.exact and res.size == oracles.brute_global_packing(cls, gamma, n)
        lp = local_packing_number(cls, max(gamma, 1), n, h, search="hill_climb")
        assert lp.exact and lp.value == oracles.brute_local_packing(cls, max(gamma, 1), n, h)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_exhaustive_search(self, seed):
        rng = np.random.default_rng(seed)
        cls = random_chain(rng)
        n = int(rng.integers(1, 7))
        h = float(rng.choice([1.0, 0.5, 0.3]))
        slope = float(rng.choice([1.0, 0.5, 0.25]))

        def results():
            star = gamma_star(cls, slope, n, search="exact")
            loc = gamma_loc(cls, slope, h, n, search="exact")
            return [(fp.gamma, fp.exact, [(r["witness_size"], r.get("eps")) for r in fp.scan])
                    for fp in (star, loc)]

        closed = results()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(geometry, "_chain", lambda c: None)
            assert results() == closed
        assert closed[0][1] and closed[1][1]

    @pytest.mark.parametrize("points, n, h, gamma, value", [
        (2, 5, 1.0, 1, 2), (2, 5, 1.0, 2, 2), (3, 6, 0.3, 1, 3)])
    def test_every_gap_used(self, points, n, h, gamma, value):
        # the packing needs every gap and the spare picks have no sink, so
        # the span bound 1 + min(2R, n) // (S + 1) is one too high
        cls = threshold_class(points)
        lp = local_packing_number(cls, gamma, n, h)
        assert (lp.value, lp.exact) == (value, True)
        assert oracles.brute_local_packing(cls, gamma, n, h) == value

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_random_chain_witnesses_replay(self, seed):
        rng = np.random.default_rng(seed)
        cls = random_chain(rng, max_points=10)
        n = int(rng.integers(1, 25))
        h = float(rng.choice([1.0, 0.5, 0.3, 0.125]))
        fp = gamma_loc(cls, h, h, n)
        assert fp.exact
        assert_scan_certified(cls, fp)

    @pytest.mark.parametrize("points, h, n", [(64, 0.5, 64), (64, 0.125, 64), (1024, 1.0, 1024),
                                              (32, 1.0, 32), (24, 0.25, 24)])
    def test_threshold_witnesses_replay(self, points, h, n):
        fp = gamma_loc(threshold_class(points), h, h, n, search="hill_climb")
        assert fp.exact and any(row["witness"] for row in fp.scan)
        assert_scan_certified(threshold_class(points), fp)

    def test_global_rows_skip_projection(self, monkeypatch):
        # global rows are certified on path positions, with no projection and
        # no Gram; a local row of packing size k projects at most k + 2 rows
        def forbidden(*args, **kwargs):
            raise AssertionError("a global chain row built a projection")

        cls = threshold_class(4096)
        with monkeypatch.context() as m:
            for module, name in ((geometry, "project"), (multisets, "project"),
                                 (multisets, "hamming_matrix"), (util, "hamming_matrix")):
                m.setattr(module, name, forbidden)
            star = gamma_star(cls, 0.5, 4096)
            single = global_packing_number(cls, 3, 4096)
        assert star.exact and single.exact and single.size == 1025
        projections = []

        def recording(cls, multiset):
            projections.append(project(cls, multiset))
            return projections[-1]

        monkeypatch.setattr(geometry, "project", recording)
        loc = gamma_loc(cls, 1.0, 1.0, 4096)
        assert loc.exact and projections
        for proj in projections:
            sizes = [r["witness_size"] for r in loc.scan if r["multiset"] == proj.multiset]
            assert sizes and proj.n_patterns <= max(sizes) + 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_path_matches_gram_on_random_chains(self, seed):
        # shuffled rows, flipped columns and constant columns
        rng = np.random.default_rng(seed)
        assert_path_matches_gram(random_chain(rng, max_points=12), int(rng.integers(1, 30)))

    @pytest.mark.parametrize("points", [2, 3, 8, 33, 129])
    def test_path_matches_gram_from_mid_path_row_0(self, points):
        pats = threshold_class(points).patterns
        mid = points // 2
        cls = HypothesisClass(PointDomain.of_size(points),
                              np.vstack([pats[mid:mid + 1], pats[:mid], pats[mid + 1:]]))
        chain = _chain(cls)
        assert chain.order[0] != 0 and chain.order[-1] != 0
        for n in (points, 2 * points + 1):
            assert_path_matches_gram(cls, n)

    @pytest.mark.parametrize("points", sorted({*range(2, 24), *range(24, 301, 23), 300}))
    def test_path_matches_gram_on_thresholds(self, points):
        for n in (points, 2 * points + 1):
            assert_path_matches_gram(threshold_class(points), n)

    def test_global_plan_fits_at_its_first_size(self):
        # a global plan (radius n) fits k = 1 + min(gaps, n // (gamma + 1)),
        # the largest size its loop tries, so its path bound is that size
        rng = np.random.default_rng(5)
        chains = [_chain(random_chain(rng, max_points=12)) for _ in range(200)]
        chains += [_chain(threshold_class(p)) for p in range(2, 301)]
        for chain in chains:
            gaps = len(chain.gap_points)
            for n in sorted({1, 2, 3, gaps + 1, 2 * gaps + 1, int(rng.integers(1, 700))}):
                for g in sorted({0, 1, 2, 5, n // 2, n, int(rng.integers(0, n + 1))}):
                    assert _chain_plan(chain, n, n, g)[0] == 1 + min(gaps, n // (g + 1))

    def test_peak_memory_below_class_size(self):
        cls = threshold_class(2048)
        for run in (lambda: _chain(cls), lambda: gamma_star(cls, 0.5, 2048)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < cls.patterns.nbytes

    def test_detection(self):
        chain = _chain(threshold_class(7))
        assert sorted(chain.gap_points) == list(range(7)) and chain.const_point is None
        for cls in (make_star_class("F1", 1, 4), circle_separator_class(10), broken_chain(16)):
            assert _chain(cls) is None


class TestAlexanderCapacity:
    def test_eps_one(self, rng):
        cls = random_class(rng)
        inst = make_massart_instance(cls, 0, 1.0)
        assert alexander_capacity(inst, 1.0) == 1.0

    def test_thresholds_bounded_by_star(self):
        inst = make_massart_instance(threshold_class(16), 8, 1.0)
        for eps in (0.1, 0.2, 0.5, 1.0):
            assert alexander_capacity(inst, eps) <= min(2.0, 1.0 / eps) + 1e-12

    def test_f1_full_disagreement(self):
        cls = make_star_class("F1", 1, 5)
        inst = make_massart_instance(cls, 0, 1.0)
        assert alexander_capacity(inst, 0.2) == pytest.approx(5.0)


class TestDoublingDimension:
    def test_single_row(self):
        cls = HypothesisClass(PointDomain.of_size(3),
                              np.array([[1, 1, -1]], dtype=np.int8))
        res = doubling_dimension(cls, DomainDistribution.uniform(3), 0.5)
        assert res.value == 1.0 and res.exact

    def test_f1_matches_oracle(self):
        cls = make_star_class("F1", 2, 6)
        px = DomainDistribution.uniform(6)
        res = doubling_dimension(cls, px, 1 / 3)
        assert res.exact
        assert res.value == pytest.approx(oracles.brute_doubling(cls, px, 1 / 3))
        assert res.value == pytest.approx(math.log(5))

    def test_random_matches_oracle(self, rng):
        for _ in range(6):
            cls = random_class(rng, max_points=5, max_rows=8)
            px = DomainDistribution.uniform(cls.n_points)
            res = doubling_dimension(cls, px, 0.4)
            assert res.value == pytest.approx(oracles.brute_doubling(cls, px, 0.4))

    def test_local_entropy_vs_doubling(self, rng):
        # distribution route: the empirical measure of the maximizing
        # multiset turns Hamming distance into the px pseudo-metric
        for _ in range(6):
            cls = random_class(rng, max_points=5, max_rows=8)
            n = cls.n_points
            for gamma in (1, 2):
                lp = local_packing_number(cls, gamma, n, 1.0, search="exact")
                if lp.multiset is None:
                    continue
                counts = np.bincount(np.asarray(lp.multiset), minlength=n)
                px = DomainDistribution.from_counts(counts)
                dd = doubling_dimension(cls, px, gamma / n)
                assert tlog(lp.value) <= 2.0 * dd.value + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000), st.booleans(), st.sampled_from([0.1, 0.25, 0.5]))
    def test_batched_greedy_matches_one_ball_greedy(self, seed, uniform, gamma_frac):
        # from_counts draws leave some points weightless, so distinct rows
        # can sit at distance 0, as on criterion 06's exact points
        rng = np.random.default_rng(seed)
        cls = random_class(rng, max_points=7, max_rows=24)
        if uniform:
            px = DomainDistribution.uniform(cls.n_points)
        else:
            counts = rng.integers(0, 3, size=cls.n_points)
            counts[rng.integers(cls.n_points)] += 1
            px = DomainDistribution.from_counts(counts)
        rho = oracles.pairwise_dists(cls.patterns, px.weights)
        for f in range(cls.n_rows):
            levels = np.array(sorted({gamma_frac} | {float(v) for v in rho[f]
                                                      if v >= gamma_frac - 1e-12}))
            balls = rho[f] <= levels[:, None] + 1e-12
            got = _greedy_cover_sizes(rho, levels, balls)
            for eps, ball, size in zip(levels, balls, got):
                idx = np.nonzero(ball)[0]
                covers = rho[np.ix_(idx, idx)] <= eps / 2.0 + 1e-12
                assert size == oracles.greedy_cover_size(covers)
        res = doubling_dimension(cls, px, gamma_frac)
        assert res.exact and res.value == pytest.approx(oracles.brute_doubling(cls, px, gamma_frac))

    def test_blocks_span_many_levels(self):
        # thresholds 64: 65 levels of up to 65^2 cover entries run in several
        # 2^16-entry blocks per center
        cls = threshold_class(64)
        px = DomainDistribution.uniform(cls.n_points)
        rho = oracles.pairwise_dists(cls.patterns, px.weights)
        levels = np.unique(rho[0])
        balls = rho[0] <= levels[:, None] + 1e-12
        got = _greedy_cover_sizes(rho, levels, balls)
        want = [oracles.greedy_cover_size(rho[np.ix_(b, b)] <= eps / 2.0 + 1e-12)
                for eps, b in zip(levels, balls)]
        assert got.tolist() == want
        assert doubling_dimension(cls, px, 0.05) == doubling.DoublingResult(
            value=math.log(3), exact=True, center_row=3, eps=0.05, cover_size=3)

    def test_f1_benchmark_result(self):
        cls = make_star_class("F1", 2, 10)
        res = doubling_dimension(cls, DomainDistribution.uniform(10), 0.1)
        assert (res.exact, res.center_row, res.eps, res.cover_size) == (True, 0, 0.1, 11)
        assert res.value == pytest.approx(math.log(11))

    @pytest.mark.parametrize("points", [1, 3])
    def test_wrong_size_px_rejected(self, points):
        with pytest.raises(ValueError, match="every domain point"):
            doubling_dimension(threshold_class(8), DomainDistribution.uniform(points), 0.2)

    def test_starved_cover_budget_is_not_exact(self, monkeypatch):
        # the greedy cover of the radius-0.2 ball around the all-minus row
        # (10 sets, 9 at best) exceeds both root lower bounds, so one node
        # cannot settle it
        cls = make_star_class("F1", 2, 10)
        px = DomainDistribution.uniform(10)
        assert doubling_dimension(cls, px, 0.2).exact
        monkeypatch.setattr(doubling, "COVER_NODE_BUDGET", 1)
        assert not doubling_dimension(cls, px, 0.2).exact


class TestPseudoconvexity:
    def test_at_least_one(self):
        rep = pseudoconvexity_constant(threshold_class(16), 1.0, 16,
                                       search="hill_climb", seed=0)
        assert rep.constant >= 1.0

    def test_cube_argmax_at_gamma_is_one(self):
        # every radius gives packing value 2, ties resolve to the smallest
        # radius, which is gamma itself
        rep = pseudoconvexity_constant(cube_class(2), 1.0, 2, search="exact")
        assert rep.constant == 1.0

    def test_antipodal_pair_needs_radius_four(self):
        # the second row enters the ball only at radius 4 while the fixed
        # point is 2, so the certified constant is exactly 2
        cls = HypothesisClass(PointDomain.of_size(4),
                              np.array([[1, 1, 1, 1], [-1, -1, -1, -1]], dtype=np.int8))
        rep = pseudoconvexity_constant(cls, 0.5, 4, search="exact")
        assert rep.constant == 2.0 and rep.gamma == 2 and rep.eps == 4

    def test_fixed_point_past_the_scan(self):
        # floor(1/h) = 4 exceeds n = 2, so the fixed point lies past the scan
        # and no radius reaches it: the packing is the center alone
        rep = pseudoconvexity_constant(cube_class(2), 0.25, 2, search="exact")
        assert (rep.constant, rep.gamma, rep.eps, rep.exact) == (1.0, 4, None, True)

    def test_f1_reported(self):
        rep = pseudoconvexity_constant(make_star_class("F1", 2, 8), 0.5, 16,
                                       search="hill_climb", seed=0)
        assert rep.constant >= 1.0 and rep.eps is not None

    def test_row_is_the_fixed_point_scan_row(self):
        cls = make_star_class("F1", 2, 8)
        rep = pseudoconvexity_constant(cls, 0.5, 16, search="hill_climb", seed=0)
        fp = gamma_loc(cls, 0.5, 1.0, 16, search="hill_climb", seed=0)
        assert rep.row == fp.scan[rep.gamma - 1] and rep.row["eps"] == rep.eps


class TestDeterminism:
    def test_hill_climb_reproducible(self):
        cls = broken_chain(64)
        a = gamma_loc(cls, 0.5, 0.5, 64, search="hill_climb", seed=9)
        b = gamma_loc(cls, 0.5, 0.5, 64, search="hill_climb", seed=9)
        assert a.gamma == b.gamma and a.scan == b.scan
