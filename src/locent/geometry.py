"""Hamming-space packing machinery and entropy fixed points for explicit classes.

Covers maximal packings (exact branch-and-bound or greedy), worst-case
global and local empirical packing numbers over point multisets, the fixed
points of global and local empirical entropy, disagreement capacity, and
the distribution-dependent doubling dimension.

Separation convention: an eps-packing has pairwise distance STRICTLY
greater than eps, which makes every maximal-by-inclusion eps-packing an
eps-cover.  Real radii are discretized as floor(eps/h) ball radii and
ceil(eps/2) separation; scan tables record the discretized values so
alternate roundings can be audited.  All entropy logarithms are truncated:
log(x) = ln(max(x, e)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .classes import DomainDistribution, HypothesisClass, MassartInstance
from .util import hamming_matrix, make_rng, tlog

__all__ = [
    "Projection",
    "PackingResult",
    "GlobalPackingResult",
    "LocalPackingResult",
    "FixedPointResult",
    "DoublingResult",
    "project",
    "max_packing",
    "verify_packing",
    "global_packing_number",
    "gamma_star",
    "local_packing_number",
    "gamma_loc",
    "alexander_capacity",
    "doubling_dimension",
    "pseudoconvexity_constant",
    "packing_log_vc_bound",
]

# Search budgets.  Each is read when its function runs, so a test can patch
# it; nothing else sets them, so a result depends only on its arguments.
PACK_NODE_BUDGET = 200_000   # branch-and-bound nodes per exact packing
COVER_NODE_BUDGET = 100_000  # branch-and-bound nodes per exact cover
MULTISET_WORK = 120_000      # most multisets times per-evaluation work it spends
RESTARTS = 32                # hill-climb starts on small classes
SWAP_TRIES = 8               # hill-climb single-point swaps on small classes
EPS_DENSE = 64               # radii a heuristic scan takes one by one
CENTER_CAP = 96              # most ball centers a heuristic local profile tries

_SEARCHES = ("exact", "auto", "hill_climb")


# ---------------------------------------------------------------------------
# projections


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
    sub = cls.patterns[:, support]
    first: dict[bytes, int] = {}
    for i, row in enumerate(sub):
        first.setdefault(row.tobytes(), i)
    reps = np.array(sorted(first.values()), dtype=np.int64)
    pats = sub[reps]
    return Projection(multiset=ms, support=support, weights=counts, patterns=pats,
                      row_map=reps, dists=hamming_matrix(pats, weights=counts))


# ---------------------------------------------------------------------------
# maximal packings


@dataclass(frozen=True)
class PackingResult:
    size: int
    witness: tuple[int, ...]
    radius: int
    exact: bool                  # branch and bound certified the maximum

    # derived from exact for bench/job.py and bench/tracing.py, which read them
    @property
    def mode(self) -> str:
        return "exact" if self.exact else "greedy"

    @property
    def budget_hit(self) -> bool:  # for max_packing: its node budget ran out
        return not self.exact


# Pattern sets are Python-int bitsets over projected-row indices (bit j is
# row j).  For one distance matrix and separation sep, the conflict row of i
# is the bitset {j : dists[i, j] <= sep}; it always holds i itself.


class _BitRows:
    """Rows of a boolean matrix as bitsets (bit j = column j).

    The matrix is packed in one numpy pass; a row becomes a Python int the
    first time it is read, so a caller that reads few rows allocates few
    integers.
    """

    __slots__ = ("_packed", "_nbytes", "_rows")

    def __init__(self, flags: np.ndarray):
        self._nbytes = (flags.shape[1] + 7) // 8
        self._packed = np.packbits(flags, axis=1, bitorder="little").tobytes()
        self._rows: dict[int, int] = {}

    def __getitem__(self, i: int) -> int:
        row = self._rows.get(i)
        if row is None:
            k = i * self._nbytes
            row = self._rows[i] = int.from_bytes(self._packed[k:k + self._nbytes], "little")
        return row


def _members(mask: int) -> list[int]:
    """Set bit positions of a bitset, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _greedy_pack(conflicts: _BitRows, cand: int) -> list[int]:
    """Maximal-by-inclusion packing of the bitset cand by minimum-index
    elimination: take the lowest candidate, clear its conflict row, repeat."""
    chosen: list[int] = []
    while cand:
        i = (cand & -cand).bit_length() - 1
        chosen.append(i)
        cand &= ~conflicts[i]
    return chosen


def _exact_pack(conflicts: _BitRows, ball: int, node_budget: int,
                beat: int = 0) -> tuple[list[int], bool]:
    """Maximum packing of the bitset ball as a maximum independent set in the
    conflict graph.

    Branch and bound with the greedy packing as incumbent, branching on the
    candidate with the most conflicts among candidates, lowest index on ties
    (counts include the candidate itself, which shifts them all by one);
    returns (witness, certified).  certified=False when the node budget ran
    out, in which case the witness is the best packing found so far.
    A node is pruned when the candidate count, or else the MCQ bound (Tomita
    & Seki 2003: a greedy partition of the candidates into conflict cliques,
    each holding at most one packed pattern), shows it cannot strictly beat
    the incumbent; so the bound changes node counts, never a finished witness.
    The incumbent's size starts at beat when the greedy packing is no larger:
    a ball whose maximum is at most beat (it cannot raise the caller's
    maximum) is then certified with its greedy witness, and a larger maximum
    is still the first one in search order, the witness found without beat.
    """
    if not ball:
        return [], True
    rows = {v: conflicts[v] for v in _members(ball)}
    greedy = _greedy_pack(conflicts, ball)
    best_mask = 0
    for i in greedy:
        best_mask |= 1 << i
    best_size = max(len(greedy), beat)
    nodes = 0
    exhausted = True

    def expand(cand: int, cur: int, cur_size: int):
        nonlocal best_mask, best_size, nodes, exhausted
        if not exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = False
            return
        if cand == 0:
            if cur_size > best_size:
                best_size, best_mask = cur_size, cur
            return
        if cur_size + cand.bit_count() <= best_size:
            return
        rest, k = cand, cur_size
        while rest and k <= best_size:  # grow a clique from the lowest candidate
            clique, grow = 0, rest & rows[(rest & -rest).bit_length() - 1]
            while grow:
                b = grow & -grow
                clique |= b
                grow &= rows[b.bit_length() - 1] & ~b
            rest &= ~clique  # only the clique: its seed's other conflicts stay
            k += 1
        if k <= best_size:
            return
        rest = cand
        v, vdeg = -1, -1
        while rest:
            b = rest & -rest
            u = b.bit_length() - 1
            deg = (rows[u] & cand).bit_count()
            if deg > vdeg:
                v, vdeg = u, deg
            rest ^= b
        expand(cand & ~rows[v], cur | 1 << v, cur_size + 1)
        expand(cand & ~(1 << v), cur, cur_size)

    expand(ball, 0, 0)
    return _members(best_mask), exhausted


def _pack(conflicts: _BitRows, ball: int, exact: bool, beat: int = 0) -> tuple[list[int], bool]:
    """Packing of the bitset ball as (witness, certified), by branch and bound
    under PACK_NODE_BUDGET when exact, else greedy (uncertified).  A branch
    and bound that runs out of nodes returns its incumbent, never smaller
    than the greedy packing: every packing shares this one fallback."""
    if exact:
        return _exact_pack(conflicts, ball, PACK_NODE_BUDGET, beat)
    return _greedy_pack(conflicts, ball), False


def _packing(dists: np.ndarray, eps: int, exact: bool) -> PackingResult:
    """Packing of every row of a distance matrix at separation > eps."""
    witness, certified = _pack(_BitRows(dists <= eps), (1 << dists.shape[0]) - 1, exact)
    return PackingResult(size=len(witness), witness=tuple(witness), radius=eps, exact=certified)


def max_packing(patterns, eps: int) -> PackingResult:
    """Maximum subset of the patterns with pairwise Hamming distance > eps,
    by branch and bound on the conflict graph (see _pack); exact=False when
    the node budget ran out."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    pats = np.asarray(patterns)
    if pats.ndim != 2 or pats.shape[0] < 1:
        raise ValueError("patterns must be a nonempty matrix")
    return _packing(hamming_matrix(pats), eps, exact=True)


def verify_packing(dists: np.ndarray, eps: int, witness) -> bool:
    """Replay check: witness indices pairwise separated by more than eps."""
    w = list(witness)
    return all(dists[a, b] > eps for a, b in combinations(w, 2)) if len(w) > 1 else True


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
    if size >= 1 << 23:
        return min(restarts, 2), 0
    if size >= 1 << 21:
        return min(restarts, 4), 0
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


@dataclass(frozen=True)
class FixedPointResult:
    gamma: int
    scan: tuple                  # per-gamma rows: dicts with the scan table columns
    params: dict
    exact: bool


def _satisfied(slope: float, gamma: int, size: int) -> bool:
    """The fixed-point inequality slope*gamma <= log(size)."""
    return slope * gamma <= tlog(size) + 1e-12


def _fixed_point(cls: HypothesisClass, slope: float, n: int, params: dict,
                 search) -> FixedPointResult:
    """Largest gamma with slope*gamma <= log of the packing size at gamma.

    The scan covers gamma in [1, g_cap], g_cap = min(n,
    floor(tlog(#patterns)/slope)); larger gamma cannot satisfy the
    inequality because no packing has more patterns than the class.  Values
    of gamma up to floor(1/slope) always satisfy it (truncated log >= 1),
    which also bounds the result from below past the scan, hence
    slope * gamma >= 1/2 always.  search(g_cap) runs the multiset search
    and returns (read, exact), read(g) giving (size, columns) of scan row g.
    """
    g_cap = min(n, int(math.floor(tlog(cls.n_rows) / slope + 1e-12)))
    read, exact = search(g_cap)
    rows = []
    for g in range(1, g_cap + 1):
        size, columns = read(g)
        rows.append({"gamma": g, "log_packing": tlog(size),
                     "satisfied": _satisfied(slope, g, size), "witness_size": size, **columns})
    gamma = max([1, int(math.floor(1.0 / slope + 1e-12))]
                + [r["gamma"] for r in rows if r["satisfied"]])
    assert slope * gamma >= 0.5 - 1e-12, "fixed point dropped below its guaranteed floor"
    return FixedPointResult(gamma=gamma, scan=tuple(rows), params=params, exact=exact)


# ---------------------------------------------------------------------------
# global packing numbers and their fixed point


@dataclass(frozen=True)
class GlobalPackingResult:
    packing: PackingResult       # witness in the multiset's projected-row indices
    multiset: tuple[int, ...]
    exact: bool                  # multiset search exhausted and every packing certified

    @property
    def size(self) -> int:
        return self.packing.size


def _global_profile(gammas, exhaustive: bool):
    """Profile of a projection's maximal gamma-packings, one key per gamma."""
    def profile(proj: Projection):
        packs = {g: _packing(proj.dists, g, exhaustive) for g in gammas}
        return ({g: (res.size, res) for g, res in packs.items()},
                all(res.exact for res in packs.values()))
    return profile


def global_packing_number(cls: HypothesisClass, gamma: int, n: int,
                          search: str = "auto", seed: int = 0) -> GlobalPackingResult:
    """Worst case over n-point multisets of the maximal gamma-packing size."""
    if gamma < 0 or n < 1:
        raise ValueError("need gamma >= 0 and n >= 1")
    exhaustive = _exhaustive_multisets(cls, n, search, eval_work=cls.n_rows)
    pooled, exact = _pooled_search(cls, n, exhaustive, seed, _global_profile([gamma], exhaustive),
                                   score=lambda prof: prof[gamma][0])
    _, packing, ms, _ = pooled[gamma]
    return GlobalPackingResult(packing=packing, multiset=ms, exact=exact)


def gamma_star(cls: HypothesisClass, c: float, n: int, search: str = "auto",
               seed: int = 0) -> FixedPointResult:
    """Largest gamma with c*gamma <= log of the worst-case gamma-packing on n points.

    One pooled multiset search serves the scan over gamma in [1, min(n,
    floor(tlog(#patterns)/c))]; the result is never below floor(1/c).
    """
    if not (0 < c <= 1):
        raise ValueError("c must lie in (0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")

    def score(prof):  # the fixed point the multiset certifies alone
        return max([0] + [g for g, (size, _) in prof.items() if _satisfied(c, g, size)])

    def search_scan(g_cap):
        exhaustive = _exhaustive_multisets(cls, n, search, eval_work=cls.n_rows * g_cap)
        pooled, exact = _pooled_search(cls, n, exhaustive, seed,
                                       _global_profile(range(1, g_cap + 1), exhaustive), score)
        return (lambda g: (pooled[g][0], {"exact": pooled[g][1].exact})), exact

    return _fixed_point(cls, c, n, {"c": c, "n": n, "search": search, "seed": seed},
                        search_scan)


# ---------------------------------------------------------------------------
# local packing numbers and their fixed point


@dataclass(frozen=True)
class LocalPackingResult:
    value: int
    center_row: int | None       # class-row index achieving the max
    eps: int | None              # radius achieving the max (None if range empty)
    multiset: tuple[int, ...] | None
    witness: tuple[int, ...]     # class-row indices of the packing
    ball_radius: int | None
    separation: int | None
    exact: bool


def _eps_grid(lo: int, hi: int, exact: bool) -> list[int]:
    """Radii to scan: all integers when exact or short, else dense head
    plus a geometric tail (always including hi)."""
    if lo > hi:
        return []
    if exact or hi - lo + 1 <= EPS_DENSE:
        return list(range(lo, hi + 1))
    grid = list(range(lo, lo + EPS_DENSE))
    e = float(lo + EPS_DENSE - 1)
    while e < hi:
        e = max(e * 1.25, e + 1)
        grid.append(min(hi, int(round(e))))
    return sorted(set(grid))


def _center_indices(u: int, exact: bool) -> np.ndarray:
    if exact:
        return np.arange(u)
    if u <= CENTER_CAP:
        return np.arange(u)
    return np.unique(np.round(np.linspace(0, u - 1, CENTER_CAP)).astype(int))


def _discretize(eps: int, h: float, total: int) -> tuple[int, int]:
    """Ball radius floor(eps/h), capped at total, and strict separation ceil(eps/2)."""
    return min(int(math.floor(eps / h + 1e-12)), total), int(math.ceil(eps / 2 - 1e-12))


def _local_profile(proj: Projection, h: float, eps_values: list[int], exact: bool):
    """Best packing per radius: eps -> (size, center_pattern_idx, witness_pattern_idxs).

    For a center f and radius eps the ball holds patterns within
    floor(eps/h) of f and the packing separation is ceil(eps/2) (strict).
    A ball of radius at least the largest distance holds every pattern, so
    its packing is solved once per separation and credited to the first
    center.  Each ball's exact packing only has to beat the best earlier
    center at its radius.  Returns (profile, all_certified).
    """
    out: dict[int, tuple[int, int, tuple]] = {}
    dists = proj.dists
    u = proj.n_patterns
    centers = _center_indices(u, exact).tolist()
    center_rows = dists[centers]
    max_dist = int(dists.max()) if u > 1 else 0
    certified_all = True

    def pack(conflicts: _BitRows, ball: int, beat: int = 0) -> tuple[int, ...]:
        nonlocal certified_all
        witness, certified = _pack(conflicts, ball, exact, beat)
        certified_all = certified_all and certified
        return tuple(witness)

    # callers pass radii in increasing order, so radii sharing a separation
    # are adjacent and only one separation's conflict rows are alive at a time
    sep_now, conflicts, saturated = None, None, None
    for eps in eps_values:
        radius, sep = _discretize(eps, h, proj.size)
        if sep != sep_now:
            sep_now, conflicts, saturated = sep, _BitRows(dists <= sep), None
        if radius >= max_dist:
            if saturated is None:
                saturated = pack(conflicts, (1 << u) - 1)
            out[eps] = (len(saturated), centers[0], saturated)
            continue
        balls = _BitRows(center_rows <= radius)
        best = None
        for k, f in enumerate(centers):
            ball = balls[k]
            if best is not None and ball.bit_count() <= best[0]:
                continue  # packing cannot beat current best
            witness = pack(conflicts, ball, 0 if best is None else best[0])
            if best is None or len(witness) > best[0]:
                best = (len(witness), f, witness)
        out[eps] = best
    return out, certified_all


_NO_PACKING = {"eps": None, "center_row": None, "multiset": None, "witness": (),
               "ball_radius": None, "separation": None}


def _packing_at(pooled: dict, gamma: int, h: float, n: int, beat: int) -> tuple[int, dict]:
    """The local packing number at gamma: the largest pooled packing over
    radii >= gamma, at its smallest radius, as (size, certificate fields in
    class rows).  A packing no larger than beat reads (beat, empty fields)."""
    size, neg_eps = max(((s, -e) for e, (s, *_) in pooled.items() if e >= gamma),
                        default=(beat, 0))
    if size <= beat:
        return beat, _NO_PACKING
    _, center, witness, ms, row_map = pooled[-neg_eps]
    radius, sep = _discretize(-neg_eps, h, n)
    return size, {"eps": -neg_eps, "center_row": int(row_map[center]), "multiset": ms,
                  "witness": tuple(int(row_map[w]) for w in witness),
                  "ball_radius": radius, "separation": sep}


def local_packing_number(cls: HypothesisClass, gamma: int, n: int, h: float,
                         search: str = "auto", seed: int = 0) -> LocalPackingResult:
    """Worst-case local packing: max over n-point multisets, centers f, and
    radii eps in [gamma, floor(n*h)] of the ceil(eps/2)-strict packing of
    the Hamming ball of radius floor(eps/h) around f.

    When the radius range is empty (gamma > n*h) the value is 1: only the
    center survives.
    """
    if gamma < 1 or n < 1 or not (0 < h <= 1):
        raise ValueError("need gamma >= 1, n >= 1, h in (0, 1]")
    hi = int(math.floor(n * h + 1e-12))
    exhaustive = _exhaustive_multisets(cls, n, search,
                                       eval_work=cls.n_rows * (hi - gamma + 1))
    if gamma > hi:
        return LocalPackingResult(value=1, exact=True, **_NO_PACKING)
    grid = _eps_grid(gamma, hi, exhaustive)

    def score(prof):  # largest packing, then smallest radius: _packing_at's order
        return max((size, -eps) for eps, (size, _, _) in prof.items())

    pooled, exact = _pooled_search(cls, n, exhaustive, seed,
                                   lambda proj: _local_profile(proj, h, grid, exhaustive), score)
    value, fields = _packing_at(pooled, gamma, h, n, beat=0)
    return LocalPackingResult(value=value, exact=exact, **fields)


def gamma_loc(cls: HypothesisClass, h: float, h_prime: float, n: int,
              search: str = "auto", seed: int = 0) -> FixedPointResult:
    """Largest gamma with h*gamma <= log of the local packing number at gamma.

    The local packing number at gamma is the sup over radii eps >= gamma,
    so it equals the suffix maximum of the per-radius profile; one pooled
    search serves the whole scan over gamma in [1, min(n,
    floor(tlog(#patterns)/h))], and the result is never below floor(1/h).
    A scan row whose packing is a single pattern carries empty certificate
    fields.
    """
    if not (0 < h <= 1) or not (0 < h_prime <= 1):
        raise ValueError("h and h' must lie in (0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    hi = int(math.floor(n * h_prime + 1e-12))

    def search_scan(g_cap):
        exhaustive = _exhaustive_multisets(cls, n, search, eval_work=cls.n_rows * max(hi, 1))
        grid = _eps_grid(1, hi, exhaustive)

        def score(prof):  # the fixed point the multiset certifies alone
            suffix = 0
            for eps in sorted(prof, reverse=True):
                suffix = max(suffix, prof[eps][0])
                if eps <= g_cap and _satisfied(h, eps, suffix):
                    return eps
            return 0

        pooled, exact = _pooled_search(
            cls, n, exhaustive, seed,
            lambda proj: _local_profile(proj, h_prime, grid, exhaustive), score)
        def read(g):
            size, fields = _packing_at(pooled, g, h_prime, n, beat=1)
            return size, {"exact": exact, **fields}
        return read, exact

    return _fixed_point(cls, h, n, {"h": h, "h_prime": h_prime, "n": n,
                                    "search": search, "seed": seed}, search_scan)


# ---------------------------------------------------------------------------
# capacity, doubling dimension, pseudoconvexity


def alexander_capacity(instance: MassartInstance, eps: float) -> float:
    """Disagreement capacity: sup over attainable levels eps0 >= eps of the
    px-mass of the disagreement region of the eps0-ball around the target,
    divided by eps0, floored at 1."""
    if not (0 < eps <= 1):
        raise ValueError("eps must lie in (0, 1]")
    cls, px = instance.cls, instance.px.weights
    fstar = instance.fstar
    disagree = cls.patterns != fstar  # (rows, points)
    radii = disagree @ px             # px-mass of disagreement with target per row
    tol = 1e-12
    levels = {float(eps)} | {float(r) for r in radii if r >= eps - tol}
    best = 1.0
    for level in sorted(levels):
        ball = radii <= level + tol
        region = disagree[ball].any(axis=0)
        mass = float(px[region].sum())
        best = max(best, mass / level)
    return best


@dataclass(frozen=True)
class DoublingResult:
    value: float
    exact: bool
    center_row: int | None
    eps: float | None
    cover_size: int


def _greedy_cover_size(covers: np.ndarray) -> int:
    """Sets a greedy cover takes: repeatedly the first set covering the most
    uncovered elements."""
    counts = covers.astype(np.int32)
    left = np.ones(covers.shape[1], dtype=np.int32)
    size = 0
    while left.any():
        left[covers[int(np.argmax(counts @ left))]] = 0
        size += 1
    return size


def _exact_cover_size(covers: np.ndarray, node_budget: int, beat: int) -> tuple[int, bool]:
    """Fewest sets covering every element, covers[i, j] saying set i covers
    element j, by branch and bound from the greedy cover; returns (size,
    certified), certified=False when the node budget ran out.  A greedy
    cover of at most beat sets (it cannot raise the caller's maximum) or one
    meeting ceil(elements / largest set) is returned at once.  Nodes are
    pruned by that bound and a dual one: uncovered elements picked so that
    no set covers two of them each need a set of their own.
    """
    best = _greedy_cover_size(covers)
    max_gain = int(covers.sum(axis=1).max())
    if best <= beat or math.ceil(covers.shape[1] / max_gain) >= best:
        return best, True
    masks = _BitRows(covers)
    cover_masks = [masks[i] for i in range(covers.shape[0])]
    universe = (1 << covers.shape[1]) - 1
    f = covers.astype(np.float32)
    near = _BitRows(f.T @ f > 0)   # element pairs some set covers together
    n_covering = covers.sum(axis=0).tolist()
    nodes = 0
    exhausted = True

    def expand(left: int, used: int):
        nonlocal best, nodes, exhausted
        if not exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = False
            return
        if left == 0:
            best = min(best, used)
            return
        if used + math.ceil(left.bit_count() / max_gain) >= best:
            return
        picks, rest = used, left
        while rest:
            b = rest & -rest
            rest &= ~(near[b.bit_length() - 1] | b)
            picks += 1
            if picks >= best:
                return
        # branch on the uncovered element with the fewest covering sets
        elem, count = -1, None
        rest = left
        while rest:
            b = rest & -rest
            e = b.bit_length() - 1
            if count is None or n_covering[e] < count:
                elem, count = e, n_covering[e]
            rest ^= b
        options = [i for i, m in enumerate(cover_masks) if m >> elem & 1]
        options.sort(key=lambda i: -(cover_masks[i] & left).bit_count())
        for i in options:
            expand(left & ~cover_masks[i], used + 1)

    expand(universe, 0)
    return best, exhausted


def doubling_dimension(cls: HypothesisClass, px: DomainDistribution,
                       gamma_frac: float) -> DoublingResult:
    """Max over centers f and radii eps >= gamma_frac of the truncated log of
    the minimal (eps/2)-cover of the px-ball of radius eps around f.

    The px pseudo-metric is P_X(f != g); covers use centers from the ball
    itself.  Candidate radii are the attainable distance levels (the cover
    is otherwise constant between levels).  _exact_cover_size's bounds
    certify each cover; a greedy cover not above the best so far is final.
    """
    if not (0 < gamma_frac <= 1):
        raise ValueError("gamma_frac must lie in (0, 1]")
    a = cls.patterns.astype(np.float64)
    w = px.weights.astype(np.float64)
    gram = (a * w) @ a.T
    rho = (1.0 - gram) / 2.0
    tol = 1e-12
    best = DoublingResult(value=1.0, exact=True, center_row=None, eps=None, cover_size=1)
    all_exact = True
    for f in range(cls.n_rows):
        drow = rho[f]
        levels = {gamma_frac} | {float(v) for v in drow if v >= gamma_frac - tol}
        for eps in sorted(levels):
            ball = np.nonzero(drow <= eps + tol)[0]
            if ball.size <= best.cover_size:
                continue
            covers = rho[np.ix_(ball, ball)] <= eps / 2.0 + tol
            size, certified = _exact_cover_size(covers, COVER_NODE_BUDGET, best.cover_size)
            all_exact = all_exact and certified
            if size > best.cover_size:
                best = DoublingResult(value=tlog(size), exact=True, center_row=f,
                                      eps=eps, cover_size=size)
    return DoublingResult(value=best.value, exact=all_exact, center_row=best.center_row,
                          eps=best.eps, cover_size=best.cover_size)


@dataclass(frozen=True)
class PseudoconvexityReport:
    constant: float
    gamma: int
    eps: int | None
    n: int
    exact: bool
    row: dict                    # gamma_loc(h, 1, n)'s scan row at the fixed point


def pseudoconvexity_constant(cls: HypothesisClass, h: float, n: int,
                             search: str = "auto", seed: int = 0) -> PseudoconvexityReport:
    """Smallest c certifying pseudoconvexity at this n: the ratio between the
    radius achieving the local packing supremum (with unit ball scale) at
    gamma_loc(h, 1) and the fixed point itself.  The report carries that
    fixed point's scan row, whose packing certificate the constant is read
    from."""
    fp = gamma_loc(cls, h, 1.0, n, search=search, seed=seed)
    # the fixed point lies past the scan only when floor(1/h) > n, where no
    # radius reaches it and the local packing is the center alone
    row = fp.scan[fp.gamma - 1] if fp.gamma <= len(fp.scan) else _NO_PACKING
    eps = row["eps"]
    constant = 1.0 if eps is None else max(1.0, eps / fp.gamma)
    return PseudoconvexityReport(constant=constant, gamma=fp.gamma, eps=eps, n=n,
                                 exact=fp.exact, row=row)


def packing_log_vc_bound(d: int, s: int, n: int, gamma: int, h: float) -> float:
    """Explicit entropy bound 2 d log(11 e^2 (n/gamma min s/h)) with truncated log."""
    return 2.0 * d * tlog(11.0 * math.e ** 2 * min(n / gamma, s / h))
