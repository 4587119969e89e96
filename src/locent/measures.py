"""Exact desk-scale combinatorial measures: VC dimension, growth function, star number.

Searches are exhaustive with structural pruning and explicit budgets; every
result carries a witness that re-verifies by direct definitional replay, and
`exact=False` marks values that are only certified lower bounds because a
budget stopped the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .classes import HypothesisClass
from .util import bitsets

__all__ = [
    "MeasureResult",
    "vc_dimension",
    "growth_function",
    "star_number",
    "verify_shattered",
    "verify_star_witness",
]

# Search budgets.  Each is read when its function runs, so a test can patch
# it; nothing else sets them, so a result depends only on its arguments.
VC_BUDGET = 500_000      # shatter checks from level 3 on
GROWTH_BUDGET = 200_000  # most point subsets growth_function enumerates
STAR_BUDGET = 200_000    # star_number's search-node budget


@dataclass(frozen=True)
class MeasureResult:
    value: int
    witness: tuple
    exact: bool

    @property
    def search_budget_hit(self) -> bool:
        """A budget stopped the search; the value is a lower bound."""
        return not self.exact


def verify_shattered(cls: HypothesisClass, points: tuple[int, ...]) -> bool:
    """Definition replay: every +-1 assignment on `points` realized by some row."""
    if not points:
        return True
    realized = {tuple(row) for row in cls.patterns[:, list(points)]}
    return len(realized) == 2 ** len(points)


# Most (subset, row) codes one counting pass holds, so a pass's arrays stay
# within a few hundred kB however many subsets a search visits; a class with
# more rows than this counts one subset per pass.
_BLOCK_CODES = 2 ** 14


def _restriction_counts(labels: np.ndarray, subsets):
    """Distinct restrictions of the rows to many equal-size point subsets, a
    block at a time: yields each block of subsets, taken in order from the
    iterable as a (k, m) array, with its k counts.

    labels is `patterns.T > 0`, C-contiguous so that gathering a point's
    labels reads one run of memory.  Each row's labels on a subset become one
    int64 code, one shift-or per subset column; past 62 bits the codes are
    first replaced by their rank within their subset, which keeps distinct
    codes distinct.  The count is one plus the neighbours that differ
    once the codes are sorted.
    """
    n_rows = labels.shape[1]
    subsets = iter(subsets)
    while block := list(islice(subsets, max(1, _BLOCK_CODES // n_rows))):
        idx = np.array(block, dtype=np.intp)
        code = np.zeros((len(block), n_rows), dtype=np.int64)
        bits = 0
        for col in idx.T:
            if bits == 62:
                order = np.argsort(code, axis=1)
                ranked = np.take_along_axis(code, order, axis=1)
                steps = np.diff(ranked, axis=1, prepend=ranked[:, :1]) != 0
                np.put_along_axis(code, order, np.cumsum(steps, axis=1), axis=1)
                bits = (n_rows - 1).bit_length()
            code |= labels[col].astype(np.int64) << bits
            bits += 1
        code.sort(axis=1)
        yield idx, 1 + np.count_nonzero(code[:, 1:] != code[:, :-1], axis=1)


def _most_restrictions(labels: np.ndarray, subsets) -> tuple[int, tuple[int, ...]]:
    """The most distinct restrictions over `subsets`, and the first subset in
    iteration order that realizes them."""
    best_v, best_s = -1, ()
    for block, counts in _restriction_counts(labels, subsets):
        i = int(counts.argmax())
        if counts[i] > best_v:
            best_v, best_s = int(counts[i]), tuple(block[i].tolist())
    return best_v, best_s


def vc_dimension(cls: HypothesisClass) -> MeasureResult:
    """Largest cardinality of a shattered point set, by level-wise extension.

    Every subset of a shattered set is shattered, so level k only extends
    shattered (k-1)-sets by larger indices (Apriori), in lexicographic
    order; level 1 is a column min/max, and every later level counts the
    restrictions of its candidates in blocks.  VC_BUDGET caps the number of
    shatter checks from level 3 on; on exhaustion the best witness so far
    is returned with exact=False.
    """
    labels = np.ascontiguousarray(cls.patterns.T > 0)
    p = cls.n_points
    max_level = min(p, int(math.floor(math.log2(cls.n_rows))) if cls.n_rows > 1 else 0)

    cols = cls.patterns
    current = [(j,) for j in range(p)
               if cols[:, j].max() == 1 and cols[:, j].min() == -1]
    if not current or max_level == 0:
        return MeasureResult(value=0, witness=(), exact=True)
    best = current[0]
    k = 1
    checks = 0
    exact = True
    while k < max_level and current:
        cands = (s + (j,) for s in current for j in range(s[-1] + 1, p))
        limit = None if k == 1 else VC_BUDGET - checks
        nxt = []
        for block, counts in _restriction_counts(labels, islice(cands, limit)):
            nxt.extend(map(tuple, block[counts == 2 ** (k + 1)].tolist()))
            if k > 1:
                checks += len(block)
        if nxt:
            best = nxt[0]
        if limit is not None and next(cands, None) is not None:
            exact = False
            break
        current = nxt
        k += 1
    return MeasureResult(value=len(best), witness=best, exact=exact)


def growth_function(cls: HypothesisClass, m: int) -> MeasureResult:
    """Maximum number of distinct labelings of m points realized by the class.

    Repetitions never increase the count, so distinct subsets suffice; for
    m >= |domain| the full point set is optimal.  Exhaustive when at most
    GROWTH_BUDGET subsets, otherwise a greedy forward selection flagged
    exact=False.  The witness is the first maximizer in lexicographic
    (exhaustive) or point (greedy) order.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    labels = np.ascontiguousarray(cls.patterns.T > 0)
    p = cls.n_points
    if m >= p or math.comb(p, m) <= GROWTH_BUDGET:
        value, witness = _most_restrictions(labels, combinations(range(p), min(m, p)))
        return MeasureResult(value=value, witness=witness, exact=True)
    witness = ()
    for _ in range(m):
        value, witness = _most_restrictions(
            labels, (witness + (j,) for j in range(p) if j not in witness))
    return MeasureResult(value=value, witness=witness, exact=False)


def verify_star_witness(cls: HypothesisClass, center: int, points: tuple[int, ...],
                        witnesses: tuple[int, ...]) -> bool:
    """Definition replay: witness i flips the center exactly at points[i] within the set."""
    if len(points) != len(set(points)) or len(points) != len(witnesses):
        return False
    f0 = cls.patterns[center]
    pts = list(points)
    for x, w in zip(points, witnesses):
        fw = cls.patterns[w]
        dis = [q for q in pts if fw[q] != f0[q]]
        if dis != [x]:
            return False
    return True


def _chain_bound(cols: list[int]) -> int:
    """Chains covering the row bitsets under inclusion, filled greedily by
    descending size.  A star set takes at most one point per chain: when y's
    rows lie within x's, every row that flips y also flips x."""
    tails: list[int] = []
    for col in sorted(cols, key=int.bit_count, reverse=True):
        for k, tail in enumerate(tails):
            if col & tail == col:
                tails[k] = col
                break
        else:
            tails.append(col)
    return len(tails)


def star_number(cls: HypothesisClass) -> MeasureResult:
    """Largest point set each of whose points is individually flippable
    around a center classifier while agreeing with it on the rest.

    Columns are Python-int bitsets over rows (bit r: row r differs from the
    center there).  Feasible sets are downward closed, so the search extends
    sets point by point in index order, maintaining for every chosen point
    the rows still able to witness it; a point whose witness pool empties
    prunes the branch.  A center is skipped, and its search left, once the
    best set reaches its chain bound, and a center with no more flippable
    columns than the best set has points is skipped before that bound is
    built; STAR_BUDGET caps search nodes.
    """
    full = (1 << cls.n_rows) - 1
    plus = bitsets(cls.patterns.T > 0)

    best_set: tuple[int, ...] = ()
    best_center = 0
    best_witnesses: tuple[int, ...] = ()
    nodes = 0
    budget_hit = False

    for center in range(cls.n_rows):
        if budget_hit:
            break
        cols = [col ^ full if col >> center & 1 else col for col in plus]
        order = [(j, col) for j, col in enumerate(cols) if col]
        if len(order) <= len(best_set):  # the chain bound is at most len(order)
            continue
        bound = _chain_bound([col for _, col in order])
        if bound <= len(best_set):
            continue

        def extend(chosen: list[int], viable: list[int], free: int, start: int) -> bool:
            """DFS over extensions; returns True to leave the center."""
            nonlocal best_set, best_center, best_witnesses, nodes, budget_hit
            if len(chosen) > len(best_set):
                best_set = tuple(chosen)
                best_center = center
                best_witnesses = tuple((v & -v).bit_length() - 1 for v in viable)
                if len(best_set) >= bound:
                    return True
            cands = [(idx, x, col) for idx, (x, col) in enumerate(order[start:], start)
                     if free & col]
            if len(chosen) + len(cands) <= len(best_set):
                return False
            for pos, (idx, x, col) in enumerate(cands):
                if len(chosen) + (len(cands) - pos) <= len(best_set):
                    return False
                nodes += 1
                if nodes > STAR_BUDGET:
                    budget_hit = True
                    return True
                new_viable = [v & ~col for v in viable]
                if not all(new_viable):
                    continue
                new_viable.append(free & col)
                if extend(chosen + [x], new_viable, free & ~col, idx + 1):
                    return True
            return False

        extend([], [], full, 0)

    return MeasureResult(value=len(best_set),
                         witness=(best_center, best_set, best_witnesses),
                         exact=not budget_hit)
