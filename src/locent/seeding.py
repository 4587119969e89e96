"""The streams of many (seed, key) pairs at once.  A pair's stream is numpy's
default_rng(SeedSequence(entropy=seed, spawn_key=key)): _pcg_states hashes
pairs into PCG64 states on arrays, spawn_seeds takes the first draw of each
without a generator, and generators reseeds one generator per stream.

Its own module because every process compiles what it imports (bytecode
caching is off): only the jobs that draw from streams load it."""

from __future__ import annotations

from itertools import islice

import numpy as np

__all__ = ["bounded", "first_words", "generators", "spawn_rngs", "spawn_seeds"]

# numpy's SeedSequence hash constants (pool size 4); uint32 arrays wrap
# their products and differences mod 2^32 as its uint32_t arithmetic does
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's multiplier in 64-bit limbs, the low one also in 32-bit halves
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (1 << 64) - 1)
_MULT_LO1, _MULT_LO0 = _MULT_LO >> 32, _MULT_LO & _M32
# most (seed, key) pairs hashed at once, so the hash's arrays and a chunk's
# Python tuples stay within a few hundred kB at any pair count
_SPAWN_CHUNK = 4096


def generators(states):
    """For each row of states (from _pcg_states), its pair's stream: one
    np.random.Generator whose PCG64 is reseeded in place, so each is valid
    until the next one is taken."""
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for s_hi, s_lo, i_hi, i_lo in states.tolist():
        # the reset of has_uint32 drops the half-word integers() buffers
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                               "has_uint32": 0, "uinteger": 0}
        yield rng


def spawn_rngs(pairs):
    """The stream of each (seed, key) pair, as generators yields them."""
    return generators(_pcg_states(pairs))


def first_words(pairs) -> np.ndarray:
    """The first 32-bit output of each (seed, key) pair's stream, the low
    half of its first 64-bit one, as uint64."""
    return _output(*_step(*_pcg_states(pairs).T)) & _M32


def bounded(words, highs) -> tuple[np.ndarray, np.ndarray]:
    """integers(high) of the streams whose first_words are words, for highs
    in [1, 2**32], as int64 draws, and the indices of the draws numpy
    redraws, whose entries are wrong: a caller draws them again through
    spawn_rngs.

    numpy draws by Lemire's method: the high word of word * high, unless
    the low word falls below (2**32 - high) % high, a chance of zero when
    high divides 2**32 and at most high / 2**32 otherwise."""
    highs = np.asarray(highs, dtype=np.uint64)
    m = words * highs
    return (m >> 32).astype(np.int64), np.flatnonzero((m & _M32) < (2 ** 32 - highs) % highs)


def spawn_seeds(pairs) -> list[int]:
    """integers(2**31) of each (seed, key) pair's stream: the seeds the
    Monte Carlo runs give their trials.  2**31 divides 2**32, so
    no draw is redrawn and no generator is built."""
    return bounded(first_words(pairs), 2 ** 31)[0].tolist()


def _pcg_states(pairs) -> np.ndarray:
    """(pairs, 4) uint64 PCG64 state of each (seed, key) pair's stream: the
    128-bit state, high limb first, then the increment."""
    pairs = iter(pairs)
    parts = []
    while chunk := list(islice(pairs, _SPAWN_CHUNK)):
        parts.append(_seed_pcg(_seed_words(chunk)))
    return np.concatenate(parts) if parts else np.empty((0, 4), dtype=np.uint64)


def _seed_words(pairs) -> np.ndarray:
    """SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64) per
    pair, as (pairs, 4) uint64: hashed here when every value is one 32-bit
    word and the keys have one length, by numpy per pair otherwise."""
    try:
        values = np.array([(seed, *key) for seed, key in pairs])
    except ValueError:  # keys of several lengths
        values = None
    if (values is None or values.ndim != 2 or values.dtype.kind not in "iu"
            or values.min() < 0 or values.max() > _M32):
        return np.array([np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)
                         for seed, key in pairs], dtype=np.uint64)
    # the seed's word, then the key's after padding to the pool size
    entropy = np.zeros((len(values), 3 + values.shape[1]), dtype=np.uint32)
    entropy[:, 0] = values[:, 0]
    entropy[:, 4:] = values[:, 1:]
    return _generate_state(_mix_entropy(entropy))


def _seed_pcg(words: np.ndarray) -> np.ndarray:
    """(rows, 4) PCG64 states from generate_state(4, np.uint64) words w: inc
    = (w2:w3) << 1 | 1 and state = ((w0:w1) + inc) * mult + inc mod 2^128."""
    s_hi, s_lo, q_hi, q_lo = words.T
    inc_hi = q_hi << 1 | q_lo >> 63
    inc_lo = q_lo << 1 | 1
    lo = s_lo + inc_lo
    hi = s_hi + inc_hi + (lo < inc_lo)
    return np.stack([*_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo], axis=1)


def _step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """One LCG step on uint64 limbs: (hi:lo) * mult + (inc_hi:inc_lo) mod 2^128."""
    lo1, lo0 = lo >> 32, lo & _M32
    low = lo0 * _MULT_LO0
    cross1, cross0 = lo1 * _MULT_LO0, lo0 * _MULT_LO1
    mid = (low >> 32) + (cross1 & _M32) + (cross0 & _M32)
    # the high limb of lo * mult_lo, then the cross products, which wrap
    hi = (lo1 * _MULT_LO1 + (cross1 >> 32) + (cross0 >> 32) + (mid >> 32)
          + hi * _MULT_LO + lo * _MULT_HI + inc_hi)
    lo = lo * _MULT_LO + inc_lo
    return hi + (lo < inc_lo), lo


def _output(hi, lo) -> np.ndarray:
    """The XSL-RR output of a state: hi ^ lo rotated right by hi >> 58."""
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << (64 - rot & 63)


def _hashmix(value: np.ndarray, hash_const: list[int]) -> np.ndarray:
    """numpy's hashmix; hash_const holds the running constant, as numpy's
    uint32_t pointer does."""
    value = value ^ hash_const[0]
    hash_const[0] = hash_const[0] * _MULT_A & _M32
    value = value * hash_const[0]
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> 16


def _mix_entropy(entropy: np.ndarray) -> list[np.ndarray]:
    """SeedSequence.mix_entropy of (rows, width) uint32 entropy words, width
    at least the pool size: the pool's 4 uint32 columns."""
    hash_const = [_INIT_A]
    mixer = [_hashmix(entropy[:, i], hash_const) for i in range(4)]
    # mix all bits together so late bits can affect earlier bits
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                mixer[i_dst] = _mix(mixer[i_dst], _hashmix(mixer[i_src], hash_const))
    # add any remaining entropy, mixing each new word with each pool word
    for i_src in range(4, entropy.shape[1]):
        for i_dst in range(4):
            mixer[i_dst] = _mix(mixer[i_dst], _hashmix(entropy[:, i_src], hash_const))
    return mixer


def _generate_state(pool: list[np.ndarray]) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) of the pool's columns, as
    (rows, 4) uint64."""
    hash_const = _INIT_B
    state = np.empty((len(pool[0]), 8), dtype=np.uint32)
    for i_dst in range(8):
        data_val = pool[i_dst % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        data_val = data_val * hash_const
        state[:, i_dst] = data_val ^ data_val >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)
