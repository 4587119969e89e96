"""Exact enumeration of affine-separator dichotomies on a planar point set.

A labeling v in {-1,+1}^n is realizable iff some line strictly separates
the +1 points from the -1 points.  The dichotomies are read off the lines
through pairs of points, with exact cross products: floats are dyadic
rationals, so every coordinate scaled by their largest denominator is an
exact Python int, there is no tolerance and near-degenerate labelings are
classified exactly.  Only planar points are enumerated.
"""

from __future__ import annotations

import numpy as np

__all__ = ["enumerate_separator_patterns"]


def enumerate_separator_patterns(coords: np.ndarray) -> np.ndarray:
    """Dichotomies of planar points, read off the lines through point pairs.

    A strictly separating line can be translated until it touches a point,
    then rotated about that point until it touches a second, distinct one,
    with no point crossing it; call the final line L.  A line close to L
    still realizes the dichotomy and meets L at one point, so the dichotomy
    labels each point off L by its side of L and splits the points on L at
    one cut along L.  Conversely, tilting L about a point at the cut (or
    shifting it, for a cut at either end) realizes each such labeling.  The
    realizable labelings are therefore the two constants plus, for every L,
    both side labelings combined with every cut in both orientations.  That
    is O(n^3) exact cross products.  Returns the patterns as an int8 matrix
    in lexicographic order (+1 before -1).  Coordinates that are not an
    (n, 2) array raise ValueError.
    """
    xy = np.asarray(coords, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"separator enumeration is planar: need 2-d coordinates, "
                         f"got shape {xy.shape}")
    ratios = [v.as_integer_ratio() for v in xy.ravel().tolist()]
    scale = max((den for _, den in ratios), default=1)
    ints = [num * (scale // den) for num, den in ratios]
    pts = list(zip(ints[0::2], ints[1::2]))
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
