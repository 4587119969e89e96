"""Chain classes: certified closed forms in place of the multiset search.

A class is a chain when its + sets are nested once each column is oriented
so that an end row is all -1; every projection of a chain is then a
weighted path.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .classes import HypothesisClass
from .packing import PackingResult


class _Chain(NamedTuple):
    """A class whose + sets are nested once each column is oriented so that
    an end row is all -1.  order lists the class rows by + count, from that
    end row; gap_points[t] is one point whose column turns + between the
    t-th and (t+1)-th rows of order; const_point is one point whose column
    never does, or None."""

    order: np.ndarray
    gap_points: tuple[int, ...]
    const_point: int | None


def _chain(cls: HypothesisClass) -> _Chain | None:
    """The chain structure of the class, or None if it is not a chain.

    In a chain the distance from row 0 grows strictly towards either end,
    so the row farthest from row 0 is an end; orienting the columns by it
    and sorting rows by + count leaves each row's + set inside the next.
    Rows are compared in blocks, so no temporary is as large as the class.
    """
    pats = cls.patterns
    step = max(1, (1 << 16) // pats.shape[1])  # rows per block

    def differing(ref):  # entries of each row that differ from ref
        return np.concatenate([np.count_nonzero(pats[s:s + step] != ref, axis=1)
                               for s in range(0, len(pats), step)])

    end = pats[int(np.argmax(differing(pats[0])))]
    order = np.argsort(differing(end), kind="stable")
    gap_points = []
    for s in range(0, len(pats) - 1, step):
        plus = pats[order[s:s + step + 1]] != end  # + sets once oriented by end
        if (plus[:-1] > plus[1:]).any():
            return None
        gap_points += np.argmax(plus[1:] > plus[:-1], axis=1).tolist()
    const = np.flatnonzero(pats[order[-1]] == end)
    return _Chain(order=order, gap_points=tuple(gap_points),
                  const_point=int(const[0]) if const.size else None)


def _path_weights(k: int, g: int, radius: int, n: int, gaps: int,
                  const: bool) -> list[int] | None:
    """Weights of consecutive chain gaps, summing to at most n, on which k
    rows lie pairwise at least g apart and within radius of one row (the
    center); None when no n-pick multiset allows it.  The caller keeps
    (k - 1) g <= n, so the spare picks are never negative.

    The center is either the j-th packing row (k - 1 gaps) or a row that
    splits the spacing after the j-th into a + b >= g (k gaps).  Picks the
    weights leave over go to a constant column or to a gap past the path
    (the caller's sink); when neither exists they must widen the two sides
    of the center, each up to the radius.
    """
    spare = n - (k - 1) * g
    for j in range(k):
        left, right = j * g, (k - 1 - j) * g
        if max(left, right) > radius:
            continue
        weights = [g] * (k - 1)
        if const or gaps >= k:
            return weights
        room_left = radius - left if j > 0 else 0
        room_right = radius - right if j < k - 1 else 0
        if spare <= room_left + room_right:
            weights[0] += min(spare, room_left)
            weights[-1] += spare - min(spare, room_left)
            return weights
    if gaps < k:
        return None
    for j in range(k - 1):
        cap_a, cap_b = radius - j * g, radius - (k - 2 - j) * g
        if min(cap_a, cap_b) < 1 or cap_a + cap_b < g:
            continue
        a = max(1, g - cap_b)
        weights = [g] * j + [a, g - a] + [g] * (k - 2 - j)
        if const or gaps > k:
            return weights
        if spare <= cap_a - a + cap_b - (g - a):
            weights[j] += min(spare, cap_a - a)
            weights[j + 1] += spare - min(spare, cap_a - a)
            return weights
    return None


def _chain_plan(chain: _Chain, n: int, radius: int, sep: int) -> tuple[int, list[int]]:
    """(size, gap weights) of the largest sep-packing inside a ball of the
    given radius over all n-point multisets of a chain class.

    A projection of a chain is a path whose edge weights are the picks in
    each gap, so k rows pairwise more than sep apart span at least
    (k - 1)(sep + 1), at most min(2 radius, n), on k - 1 of the gaps; the
    largest k within these path bounds whose placement fits is the value.
    A global packing is the case radius = n.
    """
    g = sep + 1
    gaps = len(chain.gap_points)
    for k in range(min(gaps, min(2 * radius, n) // g) + 1, 1, -1):
        weights = _path_weights(k, g, radius, n, gaps, chain.const_point is not None)
        if weights is not None:
            return k, weights
    return 1, []


def _chain_picks(chain: _Chain, weights: list[int], n: int) -> tuple[tuple[int, ...], list[int]]:
    """The planned multiset, weights[t] picks on gap t and the rest on the
    sink, and its picks per gap (a constant column's picks move no row)."""
    picks = list(weights) + [0] * (len(chain.gap_points) - len(weights))
    sink = [chain.const_point] * (n - sum(weights))
    if sink and chain.const_point is None:
        picks[len(weights)] += len(sink)
        sink = []
    ms = [p for p, w in zip(chain.gap_points, picks) for _ in range(w)] + sink
    return tuple(sorted(ms)), picks


def _path_packing(chain: _Chain, n: int, gamma: int):
    """The largest gamma-packing over n-point multisets of a chain class as
    (size, packing, multiset, row_map): _chain_plan's multiset, with a
    packing read from positions along the path.

    A class row's position is the picks on the gaps between it and the end
    row chain.order starts from; rows at one position project to one row,
    numbered as project numbers them (by lowest class row, ascending).  The
    witness is _greedy_pack's: in index order, a row joins when no row taken
    before it lies within gamma.  It always reaches the path bound k, so it
    is a maximum, and exact says that it did.  With g = gamma + 1 the plan
    takes k = 1 + min(gaps, n // g) at once, on weights [g] * (k - 1).  Its
    spare picks go to a constant column (moving no row), or onto the last
    gap when the path takes every gap, or else to the next gap, where
    k - 1 = n // g < gaps leaves fewer than g of them.  So the positions are
    0, g, ..., (k - 1) g, the last perhaps moved further out, plus at most
    one more that lies closer than g to the last alone: the greedy drops at
    most one of that pair.
    """
    bound, weights = _chain_plan(chain, n, n, gamma)
    ms, picks = _chain_picks(chain, weights, n)
    along = np.concatenate(([0], np.cumsum(picks)))  # positions of chain.order's rows
    runs = np.flatnonzero(np.diff(along, prepend=-1))  # first row at each position
    row_map = np.sort(np.minimum.reduceat(chain.order, runs))
    pos = np.empty_like(along)
    pos[chain.order] = along
    witness, taken = [], []  # taken: the witness's positions, ascending
    for i, p in enumerate(pos[row_map].tolist()):
        k = bisect_left(taken, p - gamma)
        if k == len(taken) or taken[k] > p + gamma:
            taken.insert(k, p)
            witness.append(i)
    return len(witness), PackingResult(size=len(witness), witness=tuple(witness),
                                       radius=gamma, exact=len(witness) == bound), ms, row_map
