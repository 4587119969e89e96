"""Finite-domain binary hypothesis classes, canonical generators, and noisy instances.

Classes are stored extensionally: a class is a matrix of +-1 patterns with
one row per classifier and one column per domain point.  All complexity
measures in this package operate on projections of such matrices, so the
finite representation loses nothing at the scales we target.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from .util import Frozen, bitsets, distinct, frozen_array

__all__ = [
    "PointDomain",
    "HypothesisClass",
    "DomainDistribution",
    "MassartInstance",
    "LabeledSample",
    "make_thresholds",
    "make_star_class",
    "make_linear_separators",
    "make_massart_instance",
    "threshold_class",
    "threshold_instance",
    "circle_domain",
    "circle_separator_class",
    "sample",
    "save_class",
    "load_class",
    "ClassFormatError",
    "PatternCountError",
]

# Generator caps.  Each is read when its generator runs, so a test can
# patch it; nothing else sets them.
PATTERN_CAP = 200_000       # most rows make_star_class enumerates
SEPARATOR_POINT_CAP = 20    # most points make_linear_separators takes
_CHECK_BLOCK = 1 << 16      # entries per block of rows HypothesisClass checks at once


class ClassFormatError(ValueError):
    """Malformed class file; message carries the offending line number."""


class PatternCountError(ValueError):
    """Generator would enumerate more patterns than PATTERN_CAP."""


class PointDomain(Frozen):
    """Ordered finite instance space, optionally with real coordinate vectors."""

    __slots__ = _fields = ("points", "coords")

    def __init__(self, points: tuple, coords: np.ndarray | None = None):
        if len(points) == 0:
            raise ValueError("domain needs at least one point")
        if len(set(points)) != len(points):
            raise ValueError("point identifiers must be unique")
        if coords is not None:
            c = np.asarray(coords, dtype=float)
            if c.ndim == 1:
                c = c[:, None]
            if c.ndim != 2 or c.shape[0] != len(points) or c.shape[1] < 1:
                raise ValueError("coords must be one k-vector (k >= 1) per point")
            bad = np.argwhere(~np.isfinite(c))
            if len(bad):
                i, k = bad[0]
                raise ValueError(f"coords must be finite: coordinate {k} of point {i} is {c[i, k]}")
            coords = frozen_array(c)
        self._set(points=points, coords=coords)

    @classmethod
    def of_size(cls, n: int) -> "PointDomain":
        return cls(points=tuple(range(n)))

    @classmethod
    def from_coords(cls, coords) -> "PointDomain":
        c = np.asarray(coords, dtype=float)
        n = c.shape[0]
        return cls(points=tuple(range(n)), coords=c)

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int | None:
        return None if self.coords is None else self.coords.shape[1]


class HypothesisClass(Frozen):
    """Explicit class of binary classifiers: distinct +-1 rows over a domain."""

    __slots__ = _fields = ("domain", "patterns")
    __eq__, __hash__ = object.__eq__, object.__hash__  # one object; see equals

    def __init__(self, domain: PointDomain, patterns: np.ndarray):
        a = np.asarray(patterns, dtype=np.int8)
        if a.ndim != 2 or a.shape[0] < 1:
            raise ValueError("patterns must be a nonempty 2-d matrix")
        if a.shape[1] != domain.size:
            raise ValueError("pattern width must match domain size")
        # entries are checked a block of rows at a time and rows compared by
        # their sign bitsets: no temporary is as large as the matrix
        signs: set[int] = set()
        step = max(1, _CHECK_BLOCK // a.shape[1])
        for lo in range(0, a.shape[0], step):
            block = a[lo:lo + step]
            if not np.all(np.abs(block) == 1):
                raise ValueError("pattern entries must be +-1")
            signs.update(bitsets(block > 0))
        if len(signs) != a.shape[0]:
            raise ValueError("patterns must be pairwise distinct")
        self._set(domain=domain, patterns=frozen_array(a))

    @property
    def n_points(self) -> int:
        return self.domain.size

    @property
    def n_rows(self) -> int:
        return self.patterns.shape[0]

    def row(self, i: int) -> np.ndarray:
        return self.patterns[i]

    def equals(self, other: "HypothesisClass") -> bool:
        if self.n_points != other.n_points or self.n_rows != other.n_rows:
            return False
        if self.domain.points != other.domain.points:
            return False
        a, b = self.domain.coords, other.domain.coords
        if (a is None) != (b is None) or (a is not None and not np.array_equal(a, b)):
            return False
        return bool(np.array_equal(self.patterns, other.patterns))


class DomainDistribution(Frozen):
    """Probability weights over domain points (sum to 1 within 1e-12)."""

    __slots__ = ("weights", "cdf")
    _fields = ("weights",)

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1 within 1e-12")
        cdf = w.cumsum()  # normalized as rng.choice(p=w) does, so draws match it
        self._set(weights=frozen_array(w), cdf=frozen_array(cdf / cdf[-1]))

    @classmethod
    def uniform(cls, n: int) -> "DomainDistribution":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def from_counts(cls, counts) -> "DomainDistribution":
        c = np.asarray(counts, dtype=float)
        if not (np.all(np.isfinite(c)) and np.all(c >= 0) and c.sum() > 0):
            raise ValueError("counts must be finite and nonnegative with a positive total")
        return cls(c / c.sum())


class MassartInstance(Frozen):
    """Bounded-noise learning problem: marginal, target classifier, regression values.

    eta(x) is the conditional label expectation at x; labels satisfy
    P(Y = target(x) | x) = (1 + |eta(x)|) / 2, and the margin h lower
    bounds |eta| everywhere.
    """

    __slots__ = _fields = ("cls", "px", "target", "eta", "margin")

    def __init__(self, cls: HypothesisClass, px: DomainDistribution, target: int,
                 eta: np.ndarray, margin: float):
        if not (0 < margin <= 1):
            raise ValueError("margin h must lie in (0, 1]")
        if not (0 <= target < cls.n_rows):
            raise ValueError("target row index out of range")
        if px.weights.size != cls.n_points:
            raise ValueError("distribution size must match domain")
        e = np.asarray(eta, dtype=float)
        if e.shape != (cls.n_points,):
            raise ValueError("eta must give one value per domain point")
        a = np.abs(e)
        if np.any(a < margin - 1e-15) or np.any(a > 1 + 1e-15):
            raise ValueError("|eta| must lie in [h, 1] at every point")
        if np.any(np.sign(e) != cls.row(target)):
            raise ValueError("sign(eta) must agree with the target classifier")
        self._set(cls=cls, px=px, target=target, eta=frozen_array(e), margin=margin)

    @property
    def fstar(self) -> np.ndarray:
        return self.cls.row(self.target)

    @property
    def abs_eta(self) -> np.ndarray:
        return np.abs(self.eta)

    @property
    def flip_prob(self) -> np.ndarray:
        """Per-point probability that the label disagrees with the target."""
        return (1.0 - self.abs_eta) / 2.0

    @property
    def realizable(self) -> bool:
        return bool(np.all(self.abs_eta >= 1.0 - 1e-15))


class LabeledSample(Frozen):
    """An i.i.d. draw: point indices with +-1 labels, tagged by its seed."""

    __slots__ = _fields = ("xs", "ys", "seed")

    def __init__(self, xs: np.ndarray, ys: np.ndarray, seed: int):
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int8)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 1:
            raise ValueError("sample must hold parallel nonempty index/label vectors")
        if np.any(xs < 0):
            raise ValueError("negative point index in sample")
        if not np.all(np.abs(ys) == 1):
            raise ValueError("labels must be +-1")
        self._set(xs=frozen_array(xs), ys=frozen_array(ys), seed=seed)

    @property
    def size(self) -> int:
        return self.xs.size


# ---------------------------------------------------------------------------
# generators


def make_thresholds(domain: PointDomain) -> HypothesisClass:
    """Threshold classifiers 2*1[x <= t] - 1 on a 1-d domain.

    Yields exactly n+1 patterns ordered by threshold position; consecutive
    rows differ in one coordinate, so the + sets are nested (a chain).  The
    packing numbers and fixed points of a chain have closed forms, so
    geometry takes them without a multiset search, exactly, for every
    search setting.
    """
    if domain.coords is None or domain.dim != 1:
        raise ValueError("thresholds need 1-d coordinates")
    xs = domain.coords[:, 0]
    if len(distinct(xs)) != xs.size:
        raise ValueError("duplicate coordinates make thresholds degenerate; points must be distinct reals")
    order = np.argsort(xs, kind="stable")
    n = xs.size
    patterns = np.full((n + 1, n), -1, dtype=np.int8)
    for r in range(1, n + 1):
        patterns[r, order[:r]] = 1  # threshold above the r smallest points
    return HypothesisClass(domain=domain, patterns=patterns)


def _star_f1_patterns(d: int, s: int) -> np.ndarray:
    rows = []
    for k in range(d + 1):
        for ones in combinations(range(s), k):
            row = np.full(s, -1, dtype=np.int8)
            row[list(ones)] = 1
            rows.append(row)
    return np.array(rows, dtype=np.int8)


def _star_f2_patterns(d: int, s: int) -> np.ndarray:
    head = d - 1
    rows = []
    for mask in product((-1, 1), repeat=head):
        for tail_one in range(-1, s - head):
            row = np.full(s, -1, dtype=np.int8)
            row[:head] = mask
            if tail_one >= 0:
                row[head + tail_one] = 1
            rows.append(row)
    # sort by (number of ones, lex) so the all-minus row comes first
    arr = np.array(rows, dtype=np.int8)
    ones = (arr > 0).sum(axis=1)
    keys = [tuple(r) for r in (arr > 0).astype(int)]
    order = sorted(range(len(rows)), key=lambda i: (ones[i], keys[i]))
    return arr[order]


def _star_f3_patterns(d: int, s: int, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Discretized interval-union class; returns (patterns, coords).

    The domain is d-1 unit intervals, each sampled at `grid` points, plus
    the s-2(d-1) isolated integer points.  A classifier picks a cut inside
    every interval (+1 to the right of the cut, a cut past the last grid
    point makes the interval all -1) and at most one +1 isolated point.
    """
    iso = s - 2 * (d - 1)
    cells = []
    coords = []
    for i in range(1, d):
        pts = [i - 1 + (j + 0.5) / grid for j in range(grid)]
        coords.extend(pts)
        cells.append(grid)
    for j in range(iso):
        coords.append(float(d + j))
    total = sum(cells) + iso
    rows = []
    for cuts in product(*(range(g + 1) for g in cells)):
        base = np.full(total, -1, dtype=np.int8)
        off = 0
        for width, cut in zip(cells, cuts):
            if cut < width:
                base[off + cut : off + width] = 1
            off += width
        for tail_one in range(-1, iso):
            row = base.copy()
            if tail_one >= 0:
                row[off + tail_one] = 1
            rows.append(row)
    return np.array(rows, dtype=np.int8), np.array(coords, dtype=float)


def make_star_class(variant: str, d: int, s: int, grid: int = 8) -> HypothesisClass:
    """Canonical classes with VC dimension d and star number s on s points.

    F1: all patterns with at most d coordinates +1.
    F2: at most d-1 ones among the first d-1 points, at most one +1 elsewhere.
    F3: discretized interval-union variant (needs s > 2(d-1)); grid is our
        discretization choice and is reported, not a quantity of the
        continuous class.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if variant in ("F1", "F2") and s < d:
        raise ValueError("s must be >= d")
    if variant == "F1":
        count = sum(math.comb(s, k) for k in range(d + 1))
    elif variant == "F2":
        count = 2 ** (d - 1) * (s - d + 2)
    elif variant == "F3":
        if s <= 2 * (d - 1):
            raise ValueError("F3 needs s > 2(d-1)")
        if grid < 1:
            raise ValueError("F3 needs grid >= 1")
        count = (grid + 1) ** (d - 1) * (s - 2 * (d - 1) + 1)
    else:
        raise ValueError(f"unknown star-class variant {variant!r}")
    if count > PATTERN_CAP:
        shape = f"d={d}, s={s}" + (f", grid={grid}" if variant == "F3" else "")
        raise PatternCountError(f"{variant}({shape}) would enumerate {count} patterns, "
                                f"above the cap {PATTERN_CAP}")
    if variant == "F3":
        patterns, coords = _star_f3_patterns(d, s, grid)
        return HypothesisClass(PointDomain.from_coords(coords), patterns)
    patterns = (_star_f1_patterns if variant == "F1" else _star_f2_patterns)(d, s)
    return HypothesisClass(PointDomain.of_size(s), patterns)


def make_linear_separators(domain: PointDomain) -> HypothesisClass:
    """All sign vectors realizable by affine separators on planar domain points.

    Exact integer cross products (floats are dyadic rationals, so there is
    no tolerance): every dichotomy is read off the lines through pairs of
    points, at most n(n-1)+2 rows in O(n^3) cross products.  Coordinates
    that are not 2-D, or none at all, are a ValueError.
    """
    if domain.dim != 2:
        raise ValueError("linear separators need 2-d coordinates")
    n = domain.size
    if n > SEPARATOR_POINT_CAP:
        raise ValueError(
            f"{n} points exceed the separator cap {SEPARATOR_POINT_CAP} "
            f"(up to {n * (n - 1) + 2} rows)")
    from .separators import enumerate_separator_patterns  # only this function needs it
    patterns = enumerate_separator_patterns(domain.coords)
    return HypothesisClass(domain=domain, patterns=patterns)


def threshold_class(n: int) -> HypothesisClass:
    """Threshold class on n evenly spaced points."""
    return make_thresholds(PointDomain.from_coords(np.arange(1.0, n + 1.0)))


def circle_domain(n: int, radius: int = 10_000) -> PointDomain:
    """n integer points near a circle (convex, hence general, position).

    Integer coordinates keep the exact cross products of the separator
    enumeration small; the rounding is tiny against the vertex gaps, and
    strict convexity (hence no collinear triple) is verified before
    returning, so the class has exactly n(n-1)+2 dichotomies.  One or two
    points have no triple to check.
    """
    theta = 2.0 * math.pi * (np.arange(n) + 0.3) / n
    pts = np.rint(np.c_[radius * np.cos(theta), radius * np.sin(theta)])
    for i in range(n if n >= 3 else 0):  # strict left turns all around the hull
        a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if cross <= 0:
            raise ValueError(f"degenerate rounding at n={n}; increase the radius")
    return PointDomain.from_coords(pts)


def circle_separator_class(n: int) -> HypothesisClass:
    """Affine-separator dichotomies of circle_domain(n)."""
    return make_linear_separators(circle_domain(n))


# ---------------------------------------------------------------------------
# noisy instances and sampling


def make_massart_instance(cls: HypothesisClass, target: int, h: float,
                          px: DomainDistribution | None = None) -> MassartInstance:
    """Bounded-noise instance around a target row with |eta| = h everywhere
    (build a MassartInstance directly for per-point margins)."""
    if not (0 <= target < cls.n_rows):  # before cls.row reads it
        raise ValueError("target row index out of range")
    if px is None:
        px = DomainDistribution.uniform(cls.n_points)
    eta = h * cls.row(target).astype(float)
    return MassartInstance(cls=cls, px=px, target=target, eta=eta, margin=h)


def threshold_instance(n: int, h: float, target: int | None = None) -> MassartInstance:
    """Threshold class on n evenly spaced points, uniform marginal, middle target."""
    cls = threshold_class(n)
    if target is None:
        target = (n + 1) // 2
    return make_massart_instance(cls, target, h)


def sample(instance: MassartInstance, n: int, seed: int) -> LabeledSample:
    """n i.i.d. draws: point by px, label flipped from the target w.p. (1-|eta|)/2."""
    from .seeding import _pcg_states
    xs, ys = draw_samples(instance, n, _pcg_states([(seed, ())]))
    return LabeledSample(xs=xs[0], ys=ys[0], seed=seed)


def draw_samples(instance: MassartInstance, n: int, states) -> tuple[np.ndarray, np.ndarray]:
    """Point indices and +-1 labels of one sample per row of states, the
    PCG64 states seeding._pcg_states gives for (seed, key) pairs, as
    (len(states), n) arrays.  Each sample draws random(n) for its points,
    then random(n) for its flips, from its pair's stream, so the row of
    (seed, ()) is sample(instance, n, seed)."""
    from .seeding import generators  # loaded already by whoever made states
    if n < 1:
        raise ValueError("sample size must be >= 1")
    u = np.empty((len(states), 2, n))
    for row, rng in zip(u, generators(states)):
        rng.random(out=row)  # the points' n draws, then the flips'
    xs = instance.px.cdf.searchsorted(u[:, 0], side="right")
    flips = u[:, 1] < instance.flip_prob[xs]
    ys = instance.fstar[xs].astype(np.int8)
    ys[flips] = -ys[flips]
    return xs, ys


# ---------------------------------------------------------------------------
# text format


def save_class(cls: HypothesisClass, path) -> None:
    """Deterministic text writer: header, optional coords, one +/- row per classifier."""
    lines = []
    if cls.domain.coords is not None:
        lines.append(f"points {cls.n_points} dim {cls.domain.dim}")
        for row in cls.domain.coords:
            lines.append("coord " + " ".join(repr(float(v)) for v in row))
    else:
        lines.append(f"points {cls.n_points}")
    for row in cls.patterns:
        lines.append("".join("+" if v > 0 else "-" for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_class(path) -> HypothesisClass:
    """Parse the text format written by save_class; errors carry line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    if not lines:
        raise ClassFormatError("line 1: empty class file")
    lno, header = lines[0]
    parts = header.split()
    dim = None
    if len(parts) == 2 and parts[0] == "points":
        pass
    elif len(parts) == 4 and parts[0] == "points" and parts[2] == "dim":
        dim = parts[3]
    else:
        raise ClassFormatError(f"line {lno}: header must be 'points <n> [dim <k>]'")
    try:
        n = int(parts[1])
        dim = int(dim) if dim is not None else None
    except ValueError:
        raise ClassFormatError(f"line {lno}: non-integer header field") from None
    if n < 1 or (dim is not None and dim < 1):
        raise ClassFormatError(f"line {lno}: sizes must be positive")

    idx = 1
    coords = None
    if dim is not None:
        coords = np.empty((n, dim), dtype=float)
        for i in range(n):
            if idx >= len(lines) or not lines[idx][1].startswith("coord"):
                at = lines[idx][0] if idx < len(lines) else lines[-1][0] + 1
                raise ClassFormatError(f"line {at}: expected {n} coord lines")
            lno, ln = lines[idx]
            vals = ln.split()[1:]
            if len(vals) != dim:
                raise ClassFormatError(f"line {lno}: expected {dim} coordinates")
            try:
                coords[i] = [float(v) for v in vals]
            except ValueError:
                raise ClassFormatError(f"line {lno}: non-numeric coordinate") from None
            idx += 1

    rows = []
    seen: dict[str, int] = {}
    for lno, ln in lines[idx:]:
        if len(ln) != n or set(ln) - {"+", "-"}:
            raise ClassFormatError(f"line {lno}: pattern must be a +/- string of length {n}")
        if ln in seen:
            raise ClassFormatError(f"line {lno}: duplicate pattern row (first seen on line {seen[ln]})")
        seen[ln] = lno
        rows.append([1 if ch == "+" else -1 for ch in ln])
    if not rows:
        raise ClassFormatError(f"line {lines[-1][0]}: class needs at least one pattern row")
    domain = PointDomain(points=tuple(range(n)), coords=coords)
    return HypothesisClass(domain=domain, patterns=np.array(rows, dtype=np.int8))
