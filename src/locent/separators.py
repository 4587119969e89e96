"""Exact enumeration of affine-separator dichotomies on a finite point set.

A labeling v in {-1,+1}^n is realizable iff some (w, b) has
v_i * (<w, x_i> + b) > 0 for every i, which after rescaling is the LP
feasibility question v_i * (<w, x_i> + b) >= 1.  Coordinates are converted
to exact rationals (floats are rationals), so there is no tolerance:
near-degenerate labelings are classified exactly.  In the plane the
dichotomies are read off the lines through pairs of points, with exact
cross products; elsewhere the LP decides each label prefix.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = ["is_affinely_separable", "enumerate_separator_patterns"]


def _phase1_witness(rows: list[list[Fraction]]) -> list[Fraction] | None:
    """Phase-1 simplex (Bland's rule) for A z >= 1 with z free.

    rows[i] holds the coefficients of constraint i over the free variables.
    Standard form uses z = u - w with u, w >= 0, a slack and an artificial
    variable per constraint.  Returns a feasible z, or None.
    """
    m = len(rows)
    k = len(rows[0])
    ncols = 2 * k + 2 * m  # u, w, slacks, artificials
    one = Fraction(1)
    zero = Fraction(0)

    # tableau[i] = coefficients + rhs; basis starts at the artificials
    tableau = []
    for i, row in enumerate(rows):
        t = [zero] * (ncols + 1)
        for j, c in enumerate(row):
            t[j] = c
            t[k + j] = -c
        t[2 * k + i] = -one  # slack: A z - s = 1
        t[2 * k + m + i] = one
        t[ncols] = one
        tableau.append(t)
    basis = [2 * k + m + i for i in range(m)]

    # objective: minimize sum of artificials; reduced costs via big row
    obj = [zero] * (ncols + 1)
    for i in range(m):
        for j in range(ncols + 1):
            obj[j] -= tableau[i][j]
    for i in range(m):
        obj[2 * k + m + i] += one

    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < zero:
                enter = j  # Bland: lowest index with negative reduced cost
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > zero:
                ratio = tableau[i][ncols] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            break  # unbounded phase-1 cannot happen; defensive
        piv = tableau[leave][enter]
        tableau[leave] = [c / piv for c in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != zero:
                f = tableau[i][enter]
                tableau[i] = [c - f * p for c, p in zip(tableau[i], tableau[leave])]
        if obj[enter] != zero:
            f = obj[enter]
            obj = [c - f * p for c, p in zip(obj, tableau[leave])]
        basis[leave] = enter

    if -obj[ncols] != zero:
        return None
    z = [zero] * k
    for i, b in enumerate(basis):
        if b < k:
            z[b] += tableau[i][ncols]
        elif b < 2 * k:
            z[b - k] -= tableau[i][ncols]
    return z


def _to_fractions(coords: np.ndarray) -> list[list[Fraction]]:
    return [[Fraction(float(c)) for c in row] + [Fraction(1)]
            for row in np.asarray(coords, dtype=float)]


def _feasible(aug: list[list[Fraction]], labels) -> list[Fraction] | None:
    rows = [[Fraction(int(v)) * c for c in p] for p, v in zip(aug, labels)]
    return _phase1_witness(rows)


def _planar_patterns(coords: np.ndarray) -> np.ndarray:
    """Dichotomies of planar points, read off the lines through point pairs.

    A strictly separating line can be translated until it touches a point,
    then rotated about that point until it touches a second, distinct one,
    with no point crossing it; call the final line L.  A line close to L
    still realizes the dichotomy and meets L at one point, so the dichotomy
    labels each point off L by its side of L and splits the points on L at
    one cut along L.  Conversely, tilting L about a point at the cut (or
    shifting it, for a cut at either end) realizes each such labeling.  The
    realizable labelings are therefore the two constants plus, for every L,
    both side labelings combined with every cut in both orientations.
    """
    pts = [(Fraction(float(x)), Fraction(float(y))) for x, y in coords]
    n = len(pts)
    found = {(1,) * n, (-1,) * n}
    distinct = sorted(set(pts))
    for i, (ax, ay) in enumerate(distinct):
        for bx, by in distinct[i + 1:]:
            dx, dy = bx - ax, by - ay
            side = [dx * (y - ay) - dy * (x - ax) for x, y in pts]
            along = [dx * x + dy * y for x, y in pts]
            # points on L before position `cut` get u, the rest -u; the
            # first position leaves them all on one side, which with both
            # signs of u also stands for the cut after the last position
            for cut in {t for t, c in zip(along, side) if c == 0}:
                for u in (1, -1):
                    lab = tuple((u if t < cut else -u) if c == 0 else (1 if c > 0 else -1)
                                for t, c in zip(along, side))
                    found.add(lab)
                    found.add(tuple(-v for v in lab))
    return np.array(sorted(found, reverse=True), dtype=np.int8)


def is_affinely_separable(coords: np.ndarray, labels) -> bool:
    """Whether labels in {-1,+1} are realized by sign(<w,x>+b) with no point
    on the boundary, decided by the exact-rational LP in every dimension."""
    return _feasible(_to_fractions(coords), list(labels)) is not None


def enumerate_separator_patterns(coords: np.ndarray) -> np.ndarray:
    """All sign vectors realizable by affine separators on the given points.

    Planar points are enumerated from the lines through pairs of distinct
    points, in O(n^3) exact cross products.  Other dimensions extend label
    prefixes one point at a time and keep those the LP accepts (a labeling
    is realizable only if every prefix is, so infeasible prefixes prune
    whole subtrees).  Returns the patterns as an int8 matrix in
    lexicographic order (+1 before -1).
    """
    coords = np.asarray(coords, dtype=float)
    if coords.shape[1] == 2:
        return _planar_patterns(coords)
    aug = _to_fractions(coords)
    prefixes: list[tuple[int, ...]] = [()]
    for i in range(len(aug)):
        nxt = []
        for p in prefixes:
            for s in (1, -1):
                cand = p + (s,)
                if _feasible(aug[: i + 1], cand) is not None:
                    nxt.append(cand)
        prefixes = nxt
    return np.array(prefixes, dtype=np.int8)
