"""Shared helpers: truncated logarithm, Hamming kernels, row bitsets, Monte
Carlo confidence intervals, and the immutable record base."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "tlog",
    "hamming_matrix",
    "distinct",
    "bitsets",
    "frozen_array",
    "NORMAL_99",
    "mean_ci99",
]

NORMAL_99 = 2.5758293035489004  # two-sided 99% normal quantile


def tlog(x: float) -> float:
    """Truncated natural logarithm ln(max(x, e)); always >= 1."""
    return math.log(max(x, math.e))


def mean_ci99(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and 99% normal CI half-width (0 for a single sample)."""
    trials = len(values)
    ci = NORMAL_99 * float(values.std(ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
    return float(values.mean()), ci


def distinct(values, axis=None) -> np.ndarray:
    """np.unique(values, axis=axis): the sorted distinct values (rows).

    Asking for the counts keeps numpy 2.x off its hash path, whose
    masked-array check imports numpy.ma (about 13 ms) on the first call.
    """
    return np.unique(values, return_counts=True, axis=axis)[0]


def bitsets(flags: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as a Python-int bitset (bit j: column j)."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def frozen_array(values, dtype=None) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def hamming_matrix(patterns: np.ndarray, weights=None) -> np.ndarray:
    """Pairwise (weighted) Hamming distances between +-1 rows.

    Computed with one BLAS product on +-1 entries: every intermediate value
    is an integer of magnitude at most the total weight, summed exactly, so
    float32 is exact below a total of 2**24 and float64 is used from there.
    """
    if weights is None:
        w, total = None, np.shape(patterns)[1]
    else:
        w = np.asarray(weights)
        total = int(w.sum()) if w.dtype.kind in "iub" else math.fsum(w.tolist())
    a = np.asarray(patterns, dtype=np.float32 if total < 2**24 else np.float64)
    gram = (a if w is None else a * w.astype(a.dtype)) @ a.T
    np.subtract(total, gram, out=gram)
    gram *= 0.5
    return np.rint(gram, out=gram).astype(np.int32)


class Frozen:
    """Base of the records that are not tuples: __init__ takes the _fields in
    order and stores them with _set, and they are read-only from then on.
    Records of one type compare and hash by their _fields' values.  Not a
    dataclass: @dataclass execs generated source for each class on import."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):  # and, without a value, __delattr__
        raise AttributeError(f"field {name!r} of {type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
