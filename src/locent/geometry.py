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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .classes import DomainDistribution, HypothesisClass, MassartInstance
from .util import bitsets, distinct, hamming_matrix, make_rng, tlog

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
    sub = np.take(cls.patterns, support, axis=1)
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
# row j).  For one distance matrix and separation sep, the conflict rows are
# bitsets(dists <= sep): row i is {j : dists[i, j] <= sep}, which holds i.


def _members(mask: int) -> list[int]:
    """Set bit positions of a bitset, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _greedy_pack(conflicts: list[int], cand: int) -> list[int]:
    """Maximal-by-inclusion packing of the bitset cand by minimum-index
    elimination: take the lowest candidate, clear its conflict row, repeat."""
    chosen: list[int] = []
    while cand:
        i = (cand & -cand).bit_length() - 1
        chosen.append(i)
        cand &= ~conflicts[i]
    return chosen


def _exact_pack(conflicts: list[int], ball: int, node_budget: int,
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
            clique, grow = 0, rest & conflicts[(rest & -rest).bit_length() - 1]
            while grow:
                b = grow & -grow
                clique |= b
                grow &= conflicts[b.bit_length() - 1] & ~b
            rest &= ~clique  # only the clique: its seed's other conflicts stay
            k += 1
        if k <= best_size:
            return
        rest = cand
        v, vdeg = -1, -1
        while rest:
            b = rest & -rest
            u = b.bit_length() - 1
            deg = (conflicts[u] & cand).bit_count()
            if deg > vdeg:
                v, vdeg = u, deg
            rest ^= b
        expand(cand & ~conflicts[v], cur | 1 << v, cur_size + 1)
        expand(cand & ~(1 << v), cur, cur_size)

    expand(ball, 0, 0)
    return _members(best_mask), exhausted


def _pack(conflicts: list[int], ball: int, exact: bool, beat: int = 0) -> tuple[list[int], bool]:
    """Packing of the bitset ball as (witness, certified), by branch and bound
    under PACK_NODE_BUDGET when exact, else greedy (uncertified).  A branch
    and bound that runs out of nodes returns its incumbent, never smaller
    than the greedy packing: every packing shares this one fallback."""
    if exact:
        return _exact_pack(conflicts, ball, PACK_NODE_BUDGET, beat)
    return _greedy_pack(conflicts, ball), False


def _packing(dists: np.ndarray, eps: int, exact: bool) -> PackingResult:
    """Packing of every row of a distance matrix at separation > eps."""
    witness, certified = _pack(bitsets(dists <= eps), (1 << dists.shape[0]) - 1, exact)
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
    if not np.all(np.abs(pats) == 1):
        raise ValueError("pattern entries must be +-1")
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


# ---------------------------------------------------------------------------
# chain classes: closed forms in place of the multiset search


@dataclass(frozen=True)
class _Chain:
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


def _global_search(cls: HypothesisClass, n: int, gammas, exhaustive: bool, seed: int, score):
    """Pooled gamma-packing profiles over n-point multisets: a chain class's
    closed form, else the multiset search."""
    chain = _chain(cls)
    if chain is None:
        return _pooled_search(cls, n, exhaustive, seed,
                              lambda proj: _global_profile(proj, gammas, exhaustive), score)
    pooled = {g: _path_packing(chain, n, g) for g in gammas}
    return pooled, all(packing.exact for _, packing, _, _ in pooled.values())


def _local_search(cls: HypothesisClass, n: int, h: float, gammas, exhaustive: bool,
                  seed: int, score, beat: int):
    """Pooled per-radius local packings over n-point multisets for the local
    packing numbers at gammas: a chain class's closed form, certified at the
    radius each gamma reads (the largest packing over radii >= gamma, at the
    smallest such radius, when it beats beat) on the projection of the
    planned multiset, else the multiset search.  exact when every radius's
    certified packing reaches its path bound."""
    lo, hi = min(gammas), int(math.floor(n * h + 1e-12))
    chain = _chain(cls)
    if chain is None:
        grid = _eps_grid(lo, hi, exhaustive)
        return _pooled_search(cls, n, exhaustive, seed,
                              lambda proj: _local_profile(proj, h, grid, exhaustive), score)
    plans, suffix, best = {}, {}, (0, None)
    for eps in range(hi, lo - 1, -1):  # suffix[eps]: (largest size over radii >= eps, radius)
        plans[eps] = _chain_plan(chain, n, *_discretize(eps, h, n))
        if plans[eps][0] >= best[0]:
            best = (plans[eps][0], eps)
        suffix[eps] = best
    pooled, exact = {}, True
    for eps in sorted({suffix[g][1] for g in gammas if g <= hi and suffix[g][0] > beat}):
        bound, weights = plans[eps]
        ms, _ = _chain_picks(chain, weights, n)
        proj = project(cls, ms)
        prof, certified = _local_profile(proj, h, [eps], True)
        pooled[eps] = (*prof[eps], ms, proj.row_map)
        exact = exact and certified and prof[eps][0] == bound
    return pooled, exact


@dataclass(frozen=True)
class FixedPointResult:
    gamma: int
    scan: tuple                  # per-gamma rows: dicts with the scan table columns
    params: dict
    exact: bool


def _satisfied(slope: float, gamma: int, size: int) -> bool:
    """The fixed-point inequality slope*gamma <= log(size)."""
    return slope * gamma <= tlog(size) + 1e-12


def _scan_cap(cls: HypothesisClass, slope: float, n: int) -> int:
    """The last gamma a fixed-point scan takes, min(n, floor(tlog(#patterns)/slope)):
    larger gamma cannot satisfy the inequality because no packing has more
    patterns than the class."""
    return min(n, int(math.floor(tlog(cls.n_rows) / slope + 1e-12)))


def _fixed_point(slope: float, scan: list, params: dict, exact: bool) -> FixedPointResult:
    """Largest gamma with slope*gamma <= log of the packing size at gamma.

    scan holds (size, columns) for gamma = 1, ..., _scan_cap.  Values of
    gamma up to floor(1/slope) always satisfy the inequality (truncated
    log >= 1), which also bounds the result from below past the scan, hence
    slope * gamma >= 1/2 always.
    """
    rows = []
    for g, (size, columns) in enumerate(scan, 1):
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


def _global_profile(proj: Projection, gammas, exhaustive: bool):
    """Profile of a projection's maximal gamma-packings, one key per gamma.
    Gammas of one distance class (_levels) share their conflict rows, so
    the class's packing is solved once and relabelled with each gamma."""
    levels = _levels(proj.dists)
    solved: dict[int, PackingResult] = {}
    packs = {}
    for g in gammas:
        c = bisect_right(levels, g)
        if c not in solved:
            solved[c] = _packing(proj.dists, g, exhaustive)
        packs[g] = replace(solved[c], radius=g)
    return ({g: (res.size, res) for g, res in packs.items()},
            all(res.exact for res in solved.values()))


def global_packing_number(cls: HypothesisClass, gamma: int, n: int,
                          search: str = "auto", seed: int = 0) -> GlobalPackingResult:
    """Worst case over n-point multisets of the maximal gamma-packing size."""
    if gamma < 0 or n < 1:
        raise ValueError("need gamma >= 0 and n >= 1")
    exhaustive = _exhaustive_multisets(cls, n, search, eval_work=cls.n_rows)
    pooled, exact = _global_search(cls, n, [gamma], exhaustive, seed,
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

    g_cap = _scan_cap(cls, c, n)
    exhaustive = _exhaustive_multisets(cls, n, search, eval_work=cls.n_rows * g_cap)
    pooled, exact = _global_search(cls, n, range(1, g_cap + 1), exhaustive, seed, score)
    scan = [(pooled[g][0], {"exact": pooled[g][1].exact}) for g in range(1, g_cap + 1)]
    return _fixed_point(c, scan, {"c": c, "n": n, "search": search, "seed": seed}, exact)


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
    if exact or u <= CENTER_CAP:
        return np.arange(u)
    return distinct(np.round(np.linspace(0, u - 1, CENTER_CAP)).astype(int))


def _discretize(eps: int, h: float, total: int) -> tuple[int, int]:
    """Ball radius floor(eps/h), capped at total, and strict separation ceil(eps/2)."""
    return min(int(math.floor(eps / h + 1e-12)), total), int(math.ceil(eps / 2 - 1e-12))


def _levels(dists: np.ndarray) -> list[int]:
    """The distinct entries of a distance matrix, ascending.  A ball of
    radius r, or the conflict rows at separation s, select only through the
    levels at most r (or s): bisect_right(levels, r) is r's distance class."""
    return distinct(dists).tolist()


def _local_profile(proj: Projection, h: float, eps_values: list[int], exact: bool):
    """Best packing per radius: eps -> (size, center_pattern_idx, witness_pattern_idxs).

    For a center f and radius eps the ball holds patterns within
    floor(eps/h) of f and the packing separation is ceil(eps/2) (strict).
    Each ball's exact packing only has to beat the best earlier center at
    its radius.  Radii are solved once per key, the distance classes of
    their ball radius and separation: under one key the balls, the conflict
    rows and the sequence of packings are the same, so a radius whose key
    repeats the previous radius's shares its entry.  A ball in the top
    radius class holds every pattern, so its packing is solved once and
    credited to the first center.  Returns (profile, all_certified).
    """
    out: dict[int, tuple[int, int, tuple]] = {}
    dists = proj.dists
    u = proj.n_patterns
    total = proj.size
    levels = _levels(dists)
    centers = _center_indices(u, exact).tolist()
    center_rows = dists[centers]
    certified_all = True

    def pack(conflicts: list[int], ball: int, beat: int = 0) -> tuple[int, ...]:
        nonlocal certified_all
        witness, certified = _pack(conflicts, ball, exact, beat)
        certified_all = certified_all and certified
        return tuple(witness)

    # callers pass radii in increasing order, so radii sharing a key are
    # adjacent and only one separation's conflict rows are alive at a time
    key_now, entry, conflicts, balls = (None, None), None, None, None
    for eps in eps_values:
        radius, sep = _discretize(eps, h, total)
        key = (bisect_right(levels, radius), bisect_right(levels, sep))
        if key == key_now:
            out[eps] = entry
            continue
        if key[1] != key_now[1]:
            conflicts = bitsets(dists <= sep)
        if key[0] == len(levels):  # the ball holds every pattern
            witness = pack(conflicts, (1 << u) - 1)
            entry = (len(witness), centers[0], witness)
        else:
            if key[0] != key_now[0]:
                balls = bitsets(center_rows <= radius)
            entry = None
            for k, f in enumerate(centers):
                ball = balls[k]
                if entry is not None and ball.bit_count() <= entry[0]:
                    continue  # packing cannot beat current best
                witness = pack(conflicts, ball, 0 if entry is None else entry[0])
                if entry is None or len(witness) > entry[0]:
                    entry = (len(witness), f, witness)
        key_now = key
        out[eps] = entry
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

    def score(prof):  # largest packing, then smallest radius: _packing_at's order
        return max((size, -eps) for eps, (size, _, _) in prof.items())

    pooled, exact = _local_search(cls, n, h, [gamma], exhaustive, seed, score, beat=0)
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
    g_cap = _scan_cap(cls, h, n)
    exhaustive = _exhaustive_multisets(cls, n, search, eval_work=cls.n_rows * max(hi, 1))

    def score(prof):  # the fixed point the multiset certifies alone
        suffix = 0
        for eps in sorted(prof, reverse=True):
            suffix = max(suffix, prof[eps][0])
            if eps <= g_cap and _satisfied(h, eps, suffix):
                return eps
        return 0

    pooled, exact = _local_search(cls, n, h_prime, range(1, g_cap + 1), exhaustive, seed,
                                  score, beat=1)
    scan = []
    for g in range(1, g_cap + 1):
        size, fields = _packing_at(pooled, g, h_prime, n, beat=1)
        scan.append((size, {"exact": exact, **fields}))
    return _fixed_point(h, scan, {"h": h, "h_prime": h_prime, "n": n,
                                  "search": search, "seed": seed}, exact)


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


def _greedy_cover_sizes(rho: np.ndarray, levels: np.ndarray, balls: np.ndarray) -> np.ndarray:
    """Sets a greedy cover of each of one center's balls takes, repeatedly
    taking the first set covering the most uncovered elements.  balls[k]
    marks the rows within levels[k] of the center, the balls growing with k;
    its sets are its rows' (levels[k] / 2)-balls within it.

    The balls run as one batch, in blocks whose (levels, rows, rows) cover
    tensor holds at most 2^16 entries, on the rows of the block's largest
    ball.  A set outside a level's ball covers nothing, and each uncovered
    element covers itself, so the first-index argmax of a step picks the set
    a greedy on that ball alone picks.
    """
    tol = 1e-12
    sizes = np.zeros(len(levels), dtype=np.int64)
    rows = balls.sum(axis=1).tolist()
    hi = 0
    while hi < len(levels):
        lo, hi = hi, hi + 1
        # the block takes levels while its cover tensor stays within 2^16 entries
        while hi < len(levels) and (hi + 1 - lo) * rows[hi] ** 2 <= 1 << 16:
            hi += 1
        idx = np.nonzero(balls[hi - 1])[0]
        inside = balls[lo:hi, idx]
        covers = rho[np.ix_(idx, idx)] <= levels[lo:hi, None, None] / 2.0 + tol
        covers &= inside[:, :, None]
        gains = covers.astype(np.float32)
        left = inside.astype(np.float32)
        block = np.arange(hi - lo)
        while True:
            open_ = left.any(axis=1)
            if not open_.any():
                break
            sizes[lo:hi] += open_
            picks = np.matmul(gains, left[:, :, None])[:, :, 0].argmax(axis=1)
            left[covers[block, picks]] = 0
    return sizes


def _exact_cover_size(covers: np.ndarray, greedy: int, node_budget: int) -> tuple[int, bool]:
    """Fewest sets covering every element, covers[i, j] saying set i covers
    element j, by branch and bound from a greedy cover of `greedy` sets that
    the caller found; returns (size, certified), certified=False when the
    node budget ran out.  A greedy cover meeting ceil(elements / largest set)
    is returned at once.  Nodes are pruned by that bound and a dual one: uncovered elements
    picked so that no set covers two of them each need a set of their own.
    """
    best = greedy
    max_gain = int(covers.sum(axis=1).max())
    if math.ceil(covers.shape[1] / max_gain) >= best:
        return best, True
    cover_masks = bitsets(covers)
    universe = (1 << covers.shape[1]) - 1
    f = covers.astype(np.float32)
    near = bitsets(f.T @ f > 0)   # element pairs some set covers together
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
    is otherwise constant between levels).  The greedy covers of all of one
    center's radii larger than the best cover so far run as one batch, in
    blocks of at most 2^16 cover entries, with the picks of a one-ball
    greedy.  A greedy cover not above the best so far is final; any other
    is handed with its greedy size to _exact_cover_size, whose bounds
    certify it.
    """
    if not (0 < gamma_frac <= 1):
        raise ValueError("gamma_frac must lie in (0, 1]")
    if px.weights.size != cls.n_points:
        raise ValueError("px must weight every domain point")
    a = cls.patterns.astype(np.float64)
    w = px.weights.astype(np.float64)
    gram = (a * w) @ a.T
    rho = (1.0 - gram) / 2.0
    tol = 1e-12
    best = DoublingResult(value=1.0, exact=True, center_row=None, eps=None, cover_size=1)
    all_exact = True
    for f in range(cls.n_rows):
        drow = rho[f]
        levels = distinct(np.append(drow[drow >= gamma_frac - tol], gamma_frac))
        balls = drow <= levels[:, None] + tol
        keep = balls.sum(axis=1) > best.cover_size
        levels, balls = levels[keep], balls[keep]
        greedy = _greedy_cover_sizes(rho, levels, balls)
        for eps, ball, size in zip(levels.tolist(), balls, greedy.tolist()):
            # a greedy cover is no larger than its ball, so this also skips
            # the balls that the best cover outgrew within this center
            if size <= best.cover_size:
                continue
            idx = np.nonzero(ball)[0]
            covers = rho[np.ix_(idx, idx)] <= eps / 2.0 + tol
            size, certified = _exact_cover_size(covers, size, COVER_NODE_BUDGET)
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
