"""A run's trial streams in bulk: for each (seed, key) pair, the stream of
util.make_rng(seed, *key), from numpy passes over many pairs at once.

make_rng's generator is numpy's PCG64 (XSL-RR 128/64; O'Neill 2014, "PCG: A
family of simple fast space-efficient statistically good algorithms for
random number generation"), seeded by numpy's SeedSequence hash.  Both run
here on arrays: the hash on uint32 words, PCG64's seeding and its 128-bit
LCG step on uint64 limbs, the high half of a 64-bit product from 32-bit
halves.  A bounded integer off a stream's first output (first_words,
bounded, spawn_seeds) then needs no generator; only a stream that draws
more is one np.random.Generator reseeded in place (generators, spawn_rngs).

Its own module because every process compiles what it imports (bytecode
caching is off): only the jobs that run trials load it."""

from __future__ import annotations

import functools
import operator
from itertools import islice

import numpy as np

from .util import frozen_array

__all__ = ["bounded", "first_words", "generators", "spawn_rngs", "spawn_seeds"]

# numpy's SeedSequence hash (pool size 4), as constants; uint32 arrays wrap
# their products and differences mod 2^32 as the hash does
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
# PCG64's multiplier in 64-bit limbs, the low one also in 32-bit halves
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (1 << 64) - 1)
_MULT_LO1, _MULT_LO0 = _MULT_LO >> 32, _MULT_LO & _M32
# most (seed, key) pairs hashed at once, so the hash's arrays and a chunk's
# Python tuples stay within a few hundred kB at any pair count
_SPAWN_CHUNK = 4096


def generators(states):
    """For each row of states (from _pcg_states), the generator make_rng
    returns for its pair: one np.random.Generator whose PCG64 is reseeded in
    place, so each is valid until the next one is taken."""
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for s_hi, s_lo, i_hi, i_lo in states.tolist():
        # the reset of has_uint32 drops the half-word integers() buffers
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                               "has_uint32": 0, "uinteger": 0}
        yield rng


def spawn_rngs(pairs):
    """For each (seed, key) pair, the generator make_rng(seed, *key) returns,
    as generators yields them."""
    return generators(_pcg_states(pairs))


def first_words(pairs) -> np.ndarray:
    """The first 32-bit output of make_rng(seed, *key) for each (seed, key)
    pair, the low half of its first 64-bit one, as uint64."""
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
    """integers(2**31) of make_rng(seed, *key) for each (seed, key) pair: the
    seeds the Monte Carlo runs give their trials.  2**31 divides 2**32, so
    no draw is redrawn and no generator is built."""
    return bounded(first_words(pairs), 2 ** 31)[0].tolist()


def _pcg_states(pairs) -> np.ndarray:
    """(pairs, 4) uint64 PCG64 state of make_rng(seed, *key) for each (seed,
    key) pair: the 128-bit state, high limb first, then the increment."""
    pairs = iter(pairs)
    parts = []
    while chunk := list(islice(pairs, _SPAWN_CHUNK)):
        part = np.empty((len(chunk), 4), dtype=np.uint64)
        for idx, entropy in _entropy(chunk):
            part[idx] = _seed_pcg(_generate_state(_mix_pools(entropy)))
        parts.append(part)
    return np.concatenate(parts) if parts else np.empty((0, 4), dtype=np.uint64)


def _entropy(pairs):
    """(rows, entropy) for the pairs grouped by the width of their
    SeedSequence entropy: the (len(rows), width) uint32 words, seed first,
    zero-padded to the pool size before a key and after everything."""
    try:  # the usual chunk: every value a 32-bit word, keys of one length
        values = np.array([(seed, *key) for seed, key in pairs])
    except ValueError:  # keys of several lengths
        values = None
    if (values is not None and values.ndim == 2 and values.dtype.kind in "iu"
            and values.min() >= 0 and values.max() <= _M32):
        entropy = np.zeros((len(values), 3 + values.shape[1]), dtype=np.uint32)
        entropy[:, 0] = values[:, 0]
        entropy[:, 4:] = values[:, 1:]
        yield slice(None), entropy
        return
    rows = []
    for seed, key in pairs:
        row = _words(seed)
        if key:
            row += [0] * (4 - len(row))
            for k in key:
                row += _words(k)
        rows.append(row + [0] * (4 - len(row)))
    by_width: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_width.setdefault(len(row), []).append(i)
    for idx in by_width.values():
        yield idx, np.array([rows[i] for i in idx], dtype=np.uint32)


def _words(value) -> list[int]:
    """SeedSequence's little-endian 32-bit words of a non-negative int."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


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


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier constants of count successive hash steps."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _M32)
    consts = frozen_array(consts, dtype=np.uint32)
    return consts[:-1], consts[1:]


_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)  # generate_state's 8 words


@functools.cache
def _pool_consts(width: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Hash constants of a pool of width entropy words, per stage: the first
    four words, the mixing stage as (source, destination) with the source's
    own entry unused, and the words past the pool as (word, destination)."""
    xor, mult = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * (width - 4))
    # the mixing stage runs destinations in order and skips the source
    steps = [[4 + 3 * src + dst - (dst > src) if dst != src else 0 for dst in range(4)]
             for src in range(4)]
    return [(xor[:4], mult[:4]), (xor[steps], mult[steps]),
            (xor[16:].reshape(-1, 4), mult[16:].reshape(-1, 4))]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> _SHIFT)


def _mix_pools(entropy: np.ndarray) -> np.ndarray:
    """(rows, 4) SeedSequence pools of (rows, width) uint32 entropy words."""
    first, (mix_xor, mix_mult), extra = _pool_consts(entropy.shape[1])
    pool = _hashmix(entropy[:, :4], *first)
    for src in range(4):  # each word mixes into the other three
        mixed = _mix(pool, _hashmix(pool[:, src, None], mix_xor[src], mix_mult[src]))
        mixed[:, src] = pool[:, src]
        pool = mixed
    # the hashes of the words past the pool do not depend on the pool
    for word in _hashmix(entropy[:, 4:, None], *extra).transpose(1, 0, 2):
        pool = _mix(pool, word)
    return pool


def _generate_state(pools: np.ndarray) -> np.ndarray:
    """(rows, 4) little-endian uint64 words of SeedSequence.generate_state(4,
    np.uint64)."""
    words = _hashmix(pools[:, [0, 1, 2, 3, 0, 1, 2, 3]], *_STATE_CONSTS)
    return np.ascontiguousarray(words, dtype="<u4").view("<u8")
