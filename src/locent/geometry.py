"""Empirical packing numbers and entropy fixed points for explicit classes.

Covers worst-case global and local empirical packing numbers over point
multisets, the fixed points of global and local empirical entropy, and the
pseudoconvexity constant.  The packing core (packing.py), the multiset
search (multisets.py) and the chain closed forms (chains.py) serve them;
capacity and the doubling dimension live in doubling.py.

Separation convention: an eps-packing has pairwise distance STRICTLY
greater than eps, which makes every maximal-by-inclusion eps-packing an
eps-cover.  Real radii are discretized as floor(eps/h) ball radii and
ceil(eps/2) separation; scan tables record the discretized values so
alternate roundings can be audited.  All entropy logarithms are truncated:
log(x) = ln(max(x, e)).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .chains import _chain, _chain_picks, _chain_plan, _path_packing
from .classes import HypothesisClass
from .multisets import Projection, _exhaustive_multisets, _pooled_search, project
from .packing import PackingResult, _pack, _packing, max_packing, verify_packing
from .util import bitsets, distinct, tlog

__all__ = [
    "Projection",
    "PackingResult",
    "GlobalPackingResult",
    "LocalPackingResult",
    "FixedPointResult",
    "project",
    "max_packing",
    "verify_packing",
    "global_packing_number",
    "gamma_star",
    "local_packing_number",
    "gamma_loc",
    "pseudoconvexity_constant",
    "packing_log_vc_bound",
]

# Scan budgets.  Each is read when its function runs, so a test can patch it;
# nothing else sets them, so a result depends only on its arguments.
EPS_DENSE = 64               # radii a heuristic scan takes one by one
CENTER_CAP = 96              # most ball centers a heuristic local profile tries


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
# pseudoconvexity


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
