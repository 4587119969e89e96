"""A run's trial generators in bulk: for each (seed, key) pair, the stream of
util.make_rng(seed, *key), from one numpy pass of numpy's SeedSequence hash
over many pairs and one PCG64 reseeded in place.

Its own module because every process compiles what it imports (bytecode
caching is off): only the jobs that run trials load it."""

from __future__ import annotations

import functools
import operator
from itertools import islice

import numpy as np

from .util import frozen_array

__all__ = ["spawn_rngs", "spawn_seeds"]

# numpy's SeedSequence hash (pool size 4) and PCG64 seeding, as constants;
# uint32 arrays wrap their products and differences mod 2^32 as the hash does
_M32, _M128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# most (seed, key) pairs hashed at once.  At 512 pairs a chunk's Python ints
# and lists raised a trial job's peak RSS by about 0.4 MB; at 64 they stay
# within the heap a job already has, and the hash's ~50 us per chunk adds
# under 1 us per pair.
_SPAWN_CHUNK = 64


def spawn_rngs(pairs):
    """For each (seed, key) pair, the generator make_rng(seed, *key) returns.

    The SeedSequence hash runs on chunks of up to _SPAWN_CHUNK pairs; every
    generator is one np.random.Generator whose PCG64 is reseeded in place, so
    it is valid until the next one is taken."""
    pairs = iter(pairs)
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    while chunk := list(islice(pairs, _SPAWN_CHUNK)):
        for state, inc in _pcg_states(chunk):
            # the reset of has_uint32 drops the half-word integers() buffers
            bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            yield rng


def spawn_seeds(pairs) -> list[int]:
    """integers(2**31) of make_rng(seed, *key) for each (seed, key) pair: the
    seeds the Monte Carlo runs give their trials."""
    return [int(rng.integers(2 ** 31)) for rng in spawn_rngs(pairs)]


def _words(value) -> list[int]:
    """SeedSequence's little-endian 32-bit words of a non-negative int."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _pcg_states(pairs) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of make_rng(seed, *key) for each (seed, key) pair."""
    rows = []
    for seed, key in pairs:
        row = _words(seed)
        if key:  # the run entropy is zero-padded to the pool size first
            row += [0] * (4 - len(row))
            for k in key:
                row += _words(k)
        rows.append(row + [0] * (4 - len(row)))  # a short pool hashes zeros
    by_width: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_width.setdefault(len(row), []).append(i)
    states = [None] * len(rows)
    for width, idx in by_width.items():
        pools = _mix_pools(np.array([rows[i] for i in idx], dtype=np.uint32))
        for i, (s_hi, s_lo, q_hi, q_lo) in zip(idx, _generate_state(pools).tolist()):
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & _M128
            states[i] = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128, inc
    return states


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
