"""Disagreement capacity and the distribution-dependent doubling dimension.

Both work in the P_X pseudo-metric P_X(f != g) of a Massart instance or a
domain distribution, not on point multisets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import DomainDistribution, HypothesisClass, MassartInstance
from .util import bitsets, distinct, tlog

__all__ = ["DoublingResult", "alexander_capacity", "doubling_dimension"]

# Search budget, read when doubling_dimension runs, so a test can patch it.
COVER_NODE_BUDGET = 100_000  # branch-and-bound nodes per exact cover


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
