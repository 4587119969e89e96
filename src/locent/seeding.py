"""Counter-based streams of (seed, key) pairs (SplitMix64: Steele, Lea &
Flood, OOPSLA 2014), mod 2^64 throughout.  A pair's base folds the 32-bit
words w of the seed and each key int (low first, after their count) through
h = _mix(h + GOLDEN + w) from h = 0; draw i is _mix(base + (i + 1) GOLDEN).
A uniform is a draw's top 53 bits times 2^-53; an integer in [0, k) is
floor(u k), below k and biased by under k 2^-53 for k < 2^53; a sign is a
bit.  Only the jobs that draw load this module (every process compiles what
it imports: bytecode caching is off)."""

from __future__ import annotations

import math
import operator
from itertools import islice

import numpy as np

__all__ = ["bases", "signs", "spawn_seeds", "uniforms"]

GOLDEN = 0x9E3779B97F4A7C15
_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1
_CHUNK = 4096  # most pairs hashed at once: a chunk's tuples take a few hundred kB


def _mix(z):
    """SplitMix64's mixer, on a Python int or a uint64 array (which wraps)."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
    return z ^ z >> 31


def bases(pairs) -> np.ndarray:
    """The uint64 base of each (seed, key) pair's stream: on arrays for a
    chunk whose values are each one 32-bit word and whose keys have one
    length, on Python ints otherwise and for a lone pair (7 us, not 70)."""
    pairs, parts = iter(pairs), [np.empty(0, dtype=np.uint64)]
    while chunk := list(islice(pairs, _CHUNK)):
        one_shape = len(chunk) > 1 and len({len(key) for _, key in chunk}) == 1
        values = np.array([(s, *key) for s, key in chunk]) if one_shape else None
        if (values is None or values.ndim != 2 or values.dtype.kind not in "iu"
                or values.min() < 0 or values.max() > _M32):
            h = np.array([_fold(s, *key) for s, key in chunk], dtype=np.uint64)
        else:
            h = np.zeros(len(chunk), dtype=np.uint64)
            for column in values.T.astype(np.uint64):  # a count word of 1, then the value
                h = _mix(_mix(h + (GOLDEN + 1)) + GOLDEN + column)
        parts.append(h)
    return np.concatenate(parts)


def _fold(*values) -> int:
    """The base of the stream of (values[0], values[1:]), on Python ints."""
    h = 0
    for value in map(operator.index, values):
        if value < 0:
            raise ValueError(f"stream seeds and keys must be nonnegative, not {value}")
        words = [value >> shift & _M32 for shift in range(0, max(value.bit_length(), 1), 32)]
        for word in (len(words), *words):
            h = _mix(h + GOLDEN + word & _M64)
    return h


def _draws(bases: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Draws start to stop - 1 of each base's stream, as (bases, draws) uint64."""
    return _mix(bases[:, None] + np.arange(start + 1, stop + 1, dtype=np.uint64) * GOLDEN)


def uniforms(bases: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Draws start to stop - 1 of each base's stream, as float64 in [0, 1)."""
    return (_draws(bases, start, stop) >> 11) * 2.0 ** -53


def signs(base, shape) -> np.ndarray:
    """+-1 float32 from one stream in C order, -1 where bit j % 64 of draw j // 64 is set."""
    size = math.prod(shape)
    words = _draws(np.array([base], dtype=np.uint64), 0, -(-size // 64))
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
    return np.subtract(1, bits[:size] << 1, dtype=np.float32).reshape(shape)


def spawn_seeds(pairs) -> list[int]:
    """Trial seeds: the top 31 bits of draw 0 of each (seed, key) pair's stream."""
    return (_draws(bases(pairs), 0, 1)[:, 0] >> 33).tolist()
