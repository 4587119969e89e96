"""The packing core: maximal packings of Hamming patterns, greedy or by
exact branch and bound.  An eps-packing has pairwise distance strictly
greater than eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .util import bitsets, hamming_matrix

__all__ = ["PackingResult", "max_packing", "verify_packing"]

# Search budget, read when _pack runs, so a test can patch it.
PACK_NODE_BUDGET = 200_000   # branch-and-bound nodes per exact packing


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

