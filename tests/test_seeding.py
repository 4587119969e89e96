"""Counter-based trial streams: bases, draws, trial seeds and tie draws,
whatever the chunking, with the plain-int SplitMix64 of tests/oracles.py as
the oracle."""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locent import seeding
from locent.classes import draw_samples, sample, threshold_instance
from locent.erm import _run_trials, run_trial, version_space_disagreement
from locent.processes import ENUM_CAP, check_contraction, check_localization_bound
from locent.seeding import bases, signs, spawn_seeds, uniforms

from oracles import make_rng, splitmix64, stream_base

erm_module = importlib.import_module("locent.erm")  # locent.erm is the function

EDGE_SEEDS = [0, 1, 2 ** 31 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 127]
EDGE_KEYS = [0, 21, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3]
seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2 ** 100),
                  st.integers(0, 2 ** 32 - 1),
                  st.integers(0, 2 ** 63 - 1).map(np.int64),
                  st.integers(0, 2 ** 64 - 1).map(np.uint64))
keys = st.lists(st.one_of(st.sampled_from(EDGE_KEYS), st.integers(0, 2 ** 70),
                          st.integers(0, 2 ** 32 - 1).map(np.uint32)),
                max_size=3).map(tuple)
# pairs of one word-sized layout, which a chunk of two or more hashes on arrays
word_pairs = st.integers(0, 3).flatmap(lambda width: st.lists(
    st.tuples(st.integers(0, 2 ** 32 - 1),
              st.tuples(*[st.integers(0, 2 ** 32 - 1)] * width)), max_size=40))


def oracle_draws(base, start, stop):
    outputs = splitmix64(base)
    return [next(outputs) for _ in range(stop)][start:]


class TestBases:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.lists(st.tuples(seeds, keys), max_size=24), word_pairs))
    def test_matches_the_oracle(self, pairs):
        got = bases(pairs)
        assert got.shape == (len(pairs),) and got.dtype == np.uint64
        assert got.tolist() == [stream_base(int(seed), *map(int, key)) for seed, key in pairs]

    def test_word_sized_chunks_match_the_per_pair_words(self):
        # a chunk of 32-bit values with keys of one length is hashed on
        # arrays; a lone pair, or a larger seed in the chunk, on Python ints
        pairs = [(seed, (t, 31)) for seed in (0, 5, 2 ** 32 - 1) for t in range(8)]
        mixed = bases(pairs + [(2 ** 40, (0, 31))])
        assert mixed[:-1].tolist() == bases(pairs).tolist() == \
            [int(bases([pair])[0]) for pair in pairs]

    def test_edge_pairs_in_one_batch(self):
        pairs = [(seed, key) for seed in EDGE_SEEDS
                 for key in [(), (0,), (21,), (2 ** 32, 1), (0, 2 ** 40 + 3, 7)]]
        assert bases(pairs).tolist() == [stream_base(seed, *key) for seed, key in pairs]

    def test_keys_are_told_apart_by_length_and_word_count(self):
        # (1,) and (1, 0) differ; so do the seed 2**32 (two words) and the
        # pair (0, (1,)) (one word each)
        pairs = [(1, ()), (1, (0,)), (1, (1,)), (1, (1, 0)), (1, (0, 0)),
                 (2 ** 32, ()), (0, (1,)), (0, ())]
        assert len(set(bases(pairs).tolist())) == len(pairs)

    def test_empty_batch(self):
        assert bases([]).shape == (0,) and bases(iter([])).dtype == np.uint64
        assert spawn_seeds(iter([])) == []

    @pytest.mark.parametrize("pairs", [
        [(-1, ())],
        [(5, (1, -2))] * 20,
        [(1, ())] * seeding._CHUNK + [(-3, (0,))],
    ], ids=["lone-seed", "batch-key", "second-chunk"])
    def test_negative_raises(self, pairs):
        with pytest.raises(ValueError, match="must be nonnegative"):
            bases(pairs)
        with pytest.raises(ValueError, match="must be nonnegative"):
            spawn_seeds(pairs)


class TestDraws:
    def test_first_output_from_base_0(self):
        assert next(splitmix64(0)) == 0xE220A8397B1DCDAF
        assert seeding._draws(np.zeros(1, dtype=np.uint64), 0, 1).tolist() == \
            [[0xE220A8397B1DCDAF]]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=8), st.integers(0, 40),
           st.integers(0, 40))
    def test_matches_the_oracle(self, base_list, start, count):
        words = seeding._draws(np.array(base_list, dtype=np.uint64), start, start + count)
        assert words.shape == (len(base_list), count)
        expected = [oracle_draws(base, start, start + count) for base in base_list]
        assert words.tolist() == expected
        assert uniforms(np.array(base_list, dtype=np.uint64), start, start + count).tolist() \
            == [[(w >> 11) / 2 ** 53 for w in row] for row in expected]

    def test_independent_of_chunking(self):
        streams = bases((3, (t,)) for t in range(50))
        whole = uniforms(streams, 0, 100)
        assert np.array_equal(whole, np.hstack([uniforms(streams, 0, 37),
                                                uniforms(streams, 37, 100)]))
        assert np.array_equal(whole, np.vstack([uniforms(streams[:1], 0, 100),
                                                uniforms(streams[1:], 0, 100)]))
        with mock.patch.object(seeding, "_CHUNK", 7):
            assert np.array_equal(bases((3, (t,)) for t in range(50)), streams)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 21), (5, 64), (256, 20)])
    def test_signs_match_the_oracle(self, shape):
        got = signs(stream_base(4, 8), shape)
        assert got.shape == shape and got.dtype == np.float32
        count = shape[0] * shape[1]
        assert got.ravel().tolist() == make_rng(4, 8).signs(count)

    def test_uniformity(self):
        # loose: 6 standard errors or more on every figure
        words = seeding._draws(bases([(12345, ())]), 0, 100_000)[0]
        u = (words >> 11) * 2.0 ** -53
        assert abs(u.mean() - 0.5) < 0.006 and abs(u.var() - 1 / 12) < 0.002
        assert 0.0 <= u.min() and u.max() < 1.0
        ones = np.unpackbits(words.view(np.uint8), bitorder="little").reshape(-1, 64).mean(axis=0)
        assert np.all(np.abs(ones - 0.5) < 0.01)
        # floor(u * k) covers [0, k) evenly
        counts = np.bincount((u * 7).astype(np.int64), minlength=7)
        assert len(counts) == 7 and np.all(np.abs(counts / len(u) - 1 / 7) < 0.007)

    @pytest.mark.parametrize("k", [1, 3, 7, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 53 - 1])
    def test_largest_uniform_stays_below_k(self, k):
        assert int((1 - 2.0 ** -53) * k) == k - 1


class TestFirstDraws:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.lists(st.tuples(seeds, keys), max_size=24), word_pairs))
    def test_spawn_seeds_match_the_oracle(self, pairs):
        expected = [next(splitmix64(stream_base(int(seed), *map(int, key)))) >> 33
                    for seed, key in pairs]
        assert spawn_seeds(pairs) == expected == \
            [make_rng(int(seed), *map(int, key)).integers(2 ** 31) for seed, key in pairs]

    def test_seeds_across_chunks(self):
        pairs = [(9, (t, 31)) for t in range(2 * seeding._CHUNK + 3)]
        assert spawn_seeds(pairs) == [make_rng(seed, *key).integers(2 ** 31)
                                      for seed, key in pairs]


def _ties(trials, rows, seed):
    """(trials, rows) risks whose minimum ties on 2 to rows rows per trial."""
    rng = np.random.default_rng(seed)
    risks = rng.integers(1, 3, size=(trials, rows)).astype(np.float64)
    for t, count in enumerate(rng.integers(2, rows + 1, size=trials)):
        risks[t, rng.choice(rows, size=count, replace=False)] = 0.0
    return risks


class TestTieDraws:
    def test_picks_are_integers_of_the_tie_stream(self):
        risks = _ties(300, 12, 5)
        seeds = spawn_seeds((5, (t,)) for t in range(len(risks)))
        draws = erm_module._tie_draws("seeded_random", seeds)
        chosen = erm_module._choose(risks, "seeded_random", None, draws)
        expected = []
        for seed, row in zip(seeds, risks):
            tied = np.flatnonzero(row == 0)
            expected.append(int(tied[make_rng(seed, 21).integers(len(tied))]))
        assert chosen.tolist() == expected


def test_one_trial_alone_equals_its_row_in_a_batch():
    inst = threshold_instance(16, 0.5)
    seeds = spawn_seeds((7, (t,)) for t in range(40))
    batch = _run_trials(inst, 20, seeds, "seeded_random", version_space=True)
    xs, ys = draw_samples(inst, 20, bases((seed, ()) for seed in seeds))
    for t in (0, 17, 39):
        alone = run_trial(inst, 20, "seeded_random", seeds[t])
        assert (alone.chosen, alone.empirical_risk, alone.version_space_size,
                alone.dis_mass) == (batch.chosen[t], batch.empirical_risk[t],
                                    batch.version_space_size[t], batch.dis_mass[t])
        smp = sample(inst, 20, seeds[t])
        assert np.array_equal(smp.xs, xs[t]) and np.array_equal(smp.ys, ys[t])


def _chunked_results():
    inst = threshold_instance(16, 0.5)
    seeds = spawn_seeds((7, (t,)) for t in range(40))
    trials = [_run_trials(inst, 20, seeds, kind, version_space=True)
              for kind in ("first_index", "seeded_random", "pessimistic")]
    n = ENUM_CAP + 4  # Monte Carlo signs, so the checks draw every sign stream
    return ([(r.chosen.tolist(), r.empirical_risk.tolist(),
              r.version_space_size.tolist(), r.dis_mass) for r in trials],
            version_space_disagreement(threshold_instance(16, 1.0), 8, 50, 3),
            check_contraction(inst, 0.25, n, 100, 5).as_dict(),
            check_localization_bound(inst, "halved_difference", 0.25, n, 100, 5).as_dict())


@pytest.mark.parametrize("chunk", [1, 3])
def test_chunking_leaves_results_unchanged(chunk):
    # a chunk of 1 also moves every hash to Python ints
    expected = _chunked_results()
    with mock.patch.object(seeding, "_CHUNK", chunk):
        assert _chunked_results() == expected
