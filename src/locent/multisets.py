"""Projections of a class onto point multisets, and the search over multisets.

The search either enumerates one multiset per orbit of interchangeable
points or hill-climbs from seeded starts; its callers supply what is
scored and pooled per projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import HypothesisClass
from .util import hamming_matrix, make_rng

__all__ = ["Projection", "project"]

# Search budgets.  Each is read when its function runs, so a test can patch it.
MULTISET_WORK = 120_000      # most multisets times per-evaluation work it spends
RESTARTS = 32                # hill-climb starts on small classes
SWAP_TRIES = 8               # hill-climb single-point swaps on small classes

_SEARCHES = ("exact", "auto", "hill_climb")


@dataclass(frozen=True)
class Projection:
    """A class restricted to a point multiset: distinct rows + column weights."""

    multiset: tuple[int, ...]
    support: np.ndarray          # distinct domain indices
    weights: np.ndarray          # multiplicity per support index
    patterns: np.ndarray         # distinct projected rows (u x |support|)
    row_map: np.ndarray          # representative class-row per projected row
    dists: np.ndarray            # pairwise weighted Hamming distances (u x u)

    @property
    def size(self) -> int:
        return int(self.weights.sum())

    @property
    def n_patterns(self) -> int:
        return self.patterns.shape[0]


def project(cls: HypothesisClass, multiset) -> Projection:
    """Restrict the class to a multiset of domain points (given as indices)."""
    ms = tuple(sorted(int(i) for i in multiset))
    if not ms:
        raise ValueError("multiset must be nonempty")
    if ms[0] < 0 or ms[-1] >= cls.n_points:
        raise ValueError("multiset index out of range")
    support, counts = np.unique(np.asarray(ms, dtype=np.int64), return_counts=True)
    sub = np.take(cls.patterns, support, axis=1)
    first: dict[bytes, int] = {}
    for i, row in enumerate(sub):
        first.setdefault(row.tobytes(), i)
    reps = np.array(sorted(first.values()), dtype=np.int64)
    pats = sub[reps]
    return Projection(multiset=ms, support=support, weights=counts, patterns=pats,
                      row_map=reps, dists=hamming_matrix(pats, weights=counts))


# ---------------------------------------------------------------------------
# multiset search


def _canonical_multiset(m: int, n: int) -> tuple[int, ...]:
    """Evenly spread n picks over m points (all-distinct when n == m)."""
    if n <= m:  # picks at least one apart round to distinct points
        return tuple(np.round(np.linspace(0, m - 1, n)).astype(int))
    base, extra = divmod(n, m)
    counts = [base + (1 if i < extra else 0) for i in range(m)]
    out = []
    for i, c in enumerate(counts):
        out.extend([i] * c)
    return tuple(out)


def _search_scale(cls: HypothesisClass) -> tuple[int, int]:
    """(restarts, swap tries) scaled down for large pattern matrices."""
    size = cls.n_rows * cls.n_points
    restarts, swaps = RESTARTS, SWAP_TRIES
    if size >= 1 << 17:
        return min(restarts, 6), min(swaps, 2)
    if size >= 1 << 12:
        return min(restarts, 8), min(swaps, 4)
    return restarts, swaps


def _start_multisets(cls: HypothesisClass, n: int, seed: int, restarts: int) -> list[tuple[int, ...]]:
    m = cls.n_points
    starts = [_canonical_multiset(m, n)]
    rng = make_rng(seed, m, n, 77)
    for _ in range(max(0, restarts - 1)):
        starts.append(tuple(sorted(rng.integers(0, m, size=n).tolist())))
    seen, out = set(), []
    for s in starts:
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def _blocks(cls: HypothesisClass) -> list[tuple[int, ...]]:
    """Partition of the points into blocks of interchangeable points, each
    ascending, in order of their first points.

    Points i and j are interchangeable when swapping their columns maps the
    row set onto itself.  That is an equivalence relation ((i k) is
    (i j)(j k)(i j)), so a point is checked against one representative per
    block, and only when their column sums match.  A swap changes only the
    rows where the two columns differ, negating both entries there.
    """
    pats = cls.patterns
    rows = {row.tobytes() for row in pats}
    sums = pats.sum(axis=0, dtype=np.int64).tolist()
    blocks: list[list[int]] = []
    for q in range(cls.n_points):
        for block in blocks:
            r = block[0]
            if sums[r] != sums[q]:
                continue
            swapped = pats[pats[:, r] != pats[:, q]]
            swapped[:, [r, q]] *= -1
            if all(row.tobytes() in rows for row in swapped):
                block.append(q)
                break
        else:
            blocks.append([q])
    return [tuple(block) for block in blocks]


def _canonical_multisets(blocks, n: int):
    """The n-point multisets whose counts never increase along a block in
    index order, ascending tuples in lexicographic order.

    Permuting points within blocks maps the class onto itself, so each
    orbit of multisets holds exactly one of these, its lexicographic
    minimum.  A point joins only while its count stays below the count of
    the previous point of its block, which is final by then.
    """
    m = sum(len(block) for block in blocks)
    prev = [-1] * m
    for block in blocks:
        for a, b in zip(block, block[1:]):
            prev[b] = a
    counts = [0] * m
    picks: list[int] = []

    def extend(lo: int):
        if len(picks) == n:
            yield tuple(picks)
            return
        for q in range(lo, m):
            p = prev[q]
            if p >= 0 and counts[q] >= counts[p]:
                continue
            counts[q] += 1
            picks.append(q)
            yield from extend(q)
            picks.pop()
            counts[q] -= 1

    return extend(0)


def _exhaustive_multisets(cls: HypothesisClass, n: int, search: str,
                          eval_work: int = 1) -> bool:
    """Whether the multiset search will be exhaustive.

    The cap counts every n-point multiset, C(m+n-1, n), although the
    exhaustive search visits one per orbit of interchangeable points.
    Enumeration must fit a total-work cap (count times the caller's
    per-evaluation cost estimate); past it, the search hill-climbs and
    results are flagged heuristic.  "exact" and "auto" both enumerate when
    the cap allows; "hill_climb" never does.
    """
    if search not in _SEARCHES:
        raise ValueError(f"unknown search {search!r}; expected one of {', '.join(_SEARCHES)}")
    if search == "hill_climb":
        return False
    return math.comb(cls.n_points + n - 1, n) * max(eval_work, 1) <= MULTISET_WORK


def _pooled_search(cls: HypothesisClass, n: int, exhaustive: bool, seed: int, profile, score):
    """Search the n-point multisets and pool their profiles.

    profile(Projection) returns ({key: (size, *payload)}, certified); the
    pool maps each key to (size, *payload, multiset, row_map) of the first
    visited multiset with the largest size there, row_map reading projected
    rows as class rows.  exhaustive=True visits one multiset per orbit of
    interchangeable points (_blocks), the orbit's lexicographic minimum; an
    orbit's projections are isometric, so the first maximizer in
    lexicographic order over all multisets is among those visited.
    Otherwise canonical + random starts are evaluated and the first one with
    the largest score(profile) is refined by single-point swaps.  Returns
    (pooled, exact): exact only when the search was exhaustive and every
    profile was certified, since an uncertified profile may have missed a
    larger size.
    """
    m = cls.n_points
    pooled: dict = {}
    best = (None, None)  # score, multiset
    certified_all = True

    def consider(ms):
        nonlocal best, certified_all
        proj = project(cls, ms)
        prof, certified = profile(proj)
        certified_all = certified_all and certified
        for key, entry in prof.items():
            if key not in pooled or entry[0] > pooled[key][0]:
                pooled[key] = (*entry, proj.multiset, proj.row_map)
        s = score(prof)
        if best[0] is None or s > best[0]:
            best = (s, proj.multiset)
        return s

    if exhaustive:
        for ms in _canonical_multisets(_blocks(cls), n):
            consider(ms)
        return pooled, certified_all

    restarts, swap_tries = _search_scale(cls)
    rng = make_rng(seed, m, n, 101)
    for start in _start_multisets(cls, n, seed, restarts):
        consider(start)
    # refine only the incumbent: single-point swaps, first improvement
    cur_score, current = best[0], list(best[1])
    for _ in range(swap_tries):
        pos = int(rng.integers(0, n))
        new_pt = int(rng.integers(0, m))
        if current[pos] == new_pt:
            continue
        cand = list(current)
        cand[pos] = new_pt
        s = consider(tuple(sorted(cand)))
        if s > cur_score:
            current, cur_score = cand, s
    return pooled, False
