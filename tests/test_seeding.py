"""Batched trial streams: make_rng's states, first draws and generators,
whatever the chunking, with numpy's own default_rng as the oracle."""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locent import seeding
from locent.classes import threshold_instance
from locent.erm import _run_trials, version_space_disagreement
from locent.processes import ENUM_CAP, check_contraction, check_localization_bound
from locent.seeding import bounded, first_words, spawn_rngs, spawn_seeds

from oracles import make_rng

erm_module = importlib.import_module("locent.erm")  # locent.erm is the function


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


class TestPcgStates:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(seeds, keys), max_size=24))
    def test_matches_numpy(self, pairs):
        states = seeding._pcg_states(pairs)
        assert states.shape == (len(pairs), 4) and states.dtype == np.uint64
        for (s_hi, s_lo, i_hi, i_lo), (seed, key) in zip(states.tolist(), pairs):
            state = numpy_rng(seed, key).bit_generator.state["state"]
            assert (s_hi << 64 | s_lo, i_hi << 64 | i_lo) == (state["state"], state["inc"])

    def test_word_sized_chunks_match_the_per_pair_words(self):
        # a chunk of 32-bit values with keys of one length is hashed from one
        # array; a larger seed sends the chunk through each pair's words
        pairs = [(seed, (t, 31)) for seed in (0, 5, 2 ** 32 - 1) for t in range(4)]
        mixed = seeding._pcg_states(pairs + [(2 ** 40, (0, 31))])
        assert np.array_equal(mixed[:-1], seeding._pcg_states(pairs))


class TestFirstDraws:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(seeds, keys), max_size=24))
    def test_spawn_seeds_match_numpy(self, pairs):
        assert spawn_seeds(pairs) == \
            [int(numpy_rng(seed, key).integers(2 ** 31)) for seed, key in pairs]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(seeds, keys, st.integers(1, 2 ** 32)), max_size=24))
    def test_bounded_draws_match_numpy(self, rows):
        pairs = [(seed, key) for seed, key, _ in rows]
        words = first_words(pairs)
        assert words.tolist() == [numpy_rng(seed, key).bit_generator.random_raw() & 0xFFFFFFFF
                                  for seed, key in pairs]
        highs = [high for *_, high in rows]
        draws, redraw = bounded(words, highs)
        assert draws.dtype == np.int64
        for i, rng in zip(redraw, spawn_rngs(pairs[i] for i in redraw)):
            draws[i] = rng.integers(highs[i])
        assert draws.tolist() == [int(numpy_rng(seed, key).integers(high))
                                  for seed, key, high in rows]

    def test_bounded_flags_what_numpy_redraws(self):
        # numpy redraws when the low word of word * high is below
        # (2**32 - high) % high: 1 for high 3, 4 for high 6, 0 for a power of 2
        words = np.array([0, 1, 0, 715827883, 715827882, 0, 2 ** 32 - 1], dtype=np.uint64)
        highs = [3, 3, 6, 6, 6, 2 ** 31, 5]
        draws, redraw = bounded(words, highs)
        assert redraw.tolist() == [0, 2, 3]
        assert draws.tolist()[4:] == [0, 0, 4]

    def test_numpy_redraws_a_flagged_word(self):
        # the state before an output of 2**63: first word 0, second 2**31
        state = (2 ** 63 - 1) * pow(seeding._PCG_MULT, -1, 2 ** 128) % 2 ** 128
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": 1},
                                   "has_uint32": 0, "uinteger": 0}
        # kept, word 0 would draw 0 * 3 >> 32 = 0; the redraw is 2**31 * 3 >> 32
        assert bounded(np.zeros(1, dtype=np.uint64), 3)[1].tolist() == [0]
        assert rng.integers(3) == 1


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
        assert seeding._pcg_states([]).shape == (0, 4)

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
        with pytest.raises(ValueError, match="expected non-negative integer"):
            spawn_seeds(pairs)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            first_words(pairs)


def _ties(trials, rows, seed):
    """(trials, rows) risks whose minimum ties on 2 to rows rows per trial."""
    rng = make_rng(seed)
    risks = rng.integers(1, 3, size=(trials, rows)).astype(np.float64)
    for t, count in enumerate(rng.integers(2, rows + 1, size=trials)):
        risks[t, rng.choice(rows, size=count, replace=False)] = 0.0
    return risks


class TestTieDraws:
    def test_picks_are_integers_of_the_tie_stream(self):
        risks = _ties(300, 12, 5)
        seeds = spawn_seeds((5, (t,)) for t in range(len(risks)))
        words = erm_module._tie_words("seeded_random", seeds)
        chosen = erm_module._choose(risks, "seeded_random", seeds, None, words)
        expected = []
        for seed, row in zip(seeds, risks):
            tied = np.flatnonzero(row == 0)
            expected.append(int(tied[make_rng(seed, 21).integers(len(tied))]))
        assert chosen.tolist() == expected

    def test_a_crafted_word_forces_the_redraw(self):
        # a first word of 0 leaves a low word of 0, below the threshold of
        # every tie count that is not a power of 2: numpy redraws those, and
        # so does _choose, through the trial's generator; a power of 2 keeps
        # the draw, row 0 of the tie
        risks = _ties(200, 12, 6)
        seeds = spawn_seeds((6, (t,)) for t in range(len(risks)))
        chosen = erm_module._choose(risks, "seeded_random", seeds, None,
                                    np.zeros(len(seeds), dtype=np.uint64))
        redrawn = 0
        for seed, row, pick in zip(seeds, risks, chosen.tolist()):
            tied = np.flatnonzero(row == 0)
            if len(tied) & (len(tied) - 1):
                assert pick == tied[make_rng(seed, 21).integers(len(tied))]
                redrawn += pick != tied[0]
            else:
                assert pick == tied[0]
        assert redrawn > 50


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
