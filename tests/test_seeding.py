"""Batched trial generators: make_rng's streams, whatever the chunking."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locent import seeding
from locent.classes import threshold_instance
from locent.erm import _run_trials, version_space_disagreement
from locent.processes import ENUM_CAP, check_contraction, check_localization_bound
from locent.seeding import spawn_rngs, spawn_seeds
from locent.util import make_rng


def numpy_rng(seed, key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def draws(rng):
    # integers(2**31) buffers half of a 64-bit output, which the next
    # integers call reads and random skips
    return [int(rng.integers(2 ** 31)), rng.random(2).tolist(),
            int(rng.integers(2 ** 31)), int(rng.integers(2 ** 31))]


EDGE_SEEDS = [0, 1, 2 ** 31 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 127]
EDGE_KEYS = [0, 21, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3]
seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2 ** 100),
                  st.integers(0, 2 ** 63 - 1).map(np.int64),
                  st.integers(0, 2 ** 64 - 1).map(np.uint64))
keys = st.lists(st.one_of(st.sampled_from(EDGE_KEYS), st.integers(0, 2 ** 70),
                          st.integers(0, 2 ** 32 - 1).map(np.uint32)),
                max_size=3).map(tuple)


class TestSpawnRngs:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(seeds, keys), max_size=24))
    def test_matches_numpy(self, pairs):
        # batches of mixed word widths, a lone pair included
        assert [draws(rng) for rng in spawn_rngs(pairs)] == \
            [draws(numpy_rng(seed, key)) for seed, key in pairs]

    def test_edge_pairs_in_one_batch(self):
        pairs = [(seed, key) for seed in EDGE_SEEDS
                 for key in [(), (0,), (21,), (2 ** 32, 1), (0, 2 ** 40 + 3, 7)]]
        assert len(pairs) <= seeding._SPAWN_CHUNK
        assert [draws(rng) for rng in spawn_rngs(pairs)] == \
            [draws(numpy_rng(seed, key)) for seed, key in pairs]

    def test_empty_batch(self):
        assert list(spawn_rngs([])) == []
        assert spawn_seeds(iter([])) == []

    def test_seeds_are_make_rng_draws(self):
        pairs = [(9, (t, 31)) for t in range(2 * seeding._SPAWN_CHUNK + 3)]
        assert spawn_seeds(pairs) == \
            [int(make_rng(seed, *key).integers(2 ** 31)) for seed, key in pairs]

    @pytest.mark.parametrize("pairs", [
        [(-1, ())],
        [(5, (1, -2))] * 8,
        [(1, ())] * seeding._SPAWN_CHUNK + [(-3, (0,))],
    ], ids=["lone-seed", "batch-key", "second-chunk"])
    def test_negative_raises(self, pairs):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            list(spawn_rngs(pairs))


def _chunked_results():
    inst = threshold_instance(16, 0.5)
    seeds = spawn_seeds((7, (t,)) for t in range(40))
    trials = [_run_trials(inst, 20, seeds, kind, version_space=True)
              for kind in ("first_index", "seeded_random", "pessimistic")]
    n = ENUM_CAP + 4  # Monte Carlo signs, so the checks draw every generator
    return ([(r.chosen.tolist(), r.empirical_risk.tolist(),
              r.version_space_size.tolist(), r.dis_mass) for r in trials],
            version_space_disagreement(threshold_instance(16, 1.0), 8, 50, 3),
            check_contraction(inst, 0.25, n, 100, 5).as_dict(),
            check_localization_bound(inst, "halved_difference", 0.25, n, 100, 5).as_dict())


@pytest.mark.parametrize("chunk", [1, 3])
def test_chunking_leaves_results_unchanged(chunk):
    expected = _chunked_results()
    with mock.patch.object(seeding, "_SPAWN_CHUNK", chunk):
        assert _chunked_results() == expected
