"""Offset Rademacher, shifted empirical, and multiplier processes for loss views.

Exact enumeration over all 2^n sign vectors is used up to a size cap, Monte
Carlo with per-replicate seeds beyond it.  Enumeration groups the sample
columns that are equal up to sign (multiplicity k_j): a column and its
negation enter every sum only through the group sum S_j, which has the law
of a sum of k_j signs.  It drops all-zero columns and rows that repeat
their values and penalty, keying rows and columns by their float32 bytes.
It adds the sums of two half tables of group sum vectors, a block of rows
and cells at a time, into float32 maxima over the prod_j (k_j + 1) cells,
at most 2^n of them, never forming the (cells x rows) product.  Where every
partial sum is exact in float32, it subtracts each row's penalty once, in
the high half table; elsewhere after adding the halves, as the float32 sum
of the full sign matrix rounds.  The mean weighs each cell by its
prod_j C(k_j, (S_j + k_j) / 2) sign vectors in a float64 dot product, which
is exact while the suprema span at most 53 - n bits (all multiples of 2^-F
below 2^(53 - n - F)): then it is the exact mean of the float32
per-sign-vector suprema.  That holds for values in {-1, 0, 1} with
penalties c m, integer |m| <= n and c = 0 or |c| >= 2^-9.  The inequality
checks are one-sided statistical tests with 3-sigma slack: they can refute
but not prove, so they are calibrated to be stable under reseeding.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, count, repeat
from typing import NamedTuple

import numpy as np

from .classes import HypothesisClass, LabeledSample, MassartInstance, draw_samples
from .geometry import gamma_loc
from .seeding import _pcg_states, spawn_rngs, spawn_seeds
from .util import NORMAL_99, Frozen, distinct, frozen_array, tlog

__all__ = [
    "ProcessEstimate",
    "LossClassView",
    "offset_rademacher_sup",
    "shifted_process_sup",
    "check_symmetrization_expectation",
    "check_contraction",
    "check_localization_bound",
    "sudakov_check",
    "InequalityReport",
]

ENUM_CAP = 16
INNER_REPS = 256             # Monte Carlo sign draws per trial past ENUM_CAP
_COMB = np.array([[math.comb(k, i) for i in range(ENUM_CAP + 1)] for k in range(ENUM_CAP + 1)],
                 dtype=np.float64)


class ProcessEstimate(NamedTuple):
    value: float
    ci_halfwidth: float
    exact: bool                  # exact enumeration, else Monte Carlo
    replicates: int
    seed: int | None = None


class InequalityReport(Frozen):
    """One inequality check; as_dict is its JSON form (a tuple would dump as a list)."""

    __slots__ = _fields = ("name", "lhs", "rhs", "lhs_ci", "rhs_ci", "passed", "details")

    def __init__(self, name: str, lhs: float, rhs: float, lhs_ci: float, rhs_ci: float,
                 passed: bool, details: dict):
        self._set(name=name, lhs=lhs, rhs=rhs, lhs_ci=lhs_ci, rhs_ci=rhs_ci,
                  passed=passed, details=details)

    def as_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "lhs_ci": self.lhs_ci, "rhs_ci": self.rhs_ci,
                "pass": self.passed, **self.details}


class LossClassView(Frozen):
    """Pointwise derived function class around a target classifier.

    disagreement:       g_f(x)   = 1[f(x) != target(x)]      in {0, 1}
    halved_difference:  g_f(x)   = (f(x) - target(x)) / 2    in {-1, 0, 1}
    excess_loss:        g_f(x,y) = 1[f(x) != y] - 1[target(x) != y]
                                 = -y * (f(x) - target(x)) / 2
    """

    __slots__ = ("base", "target", "view", "_domain")
    _fields = ("base", "target", "view")

    def __init__(self, base: HypothesisClass, target: int, view: str):
        if view not in ("excess_loss", "disagreement", "halved_difference"):
            raise ValueError(f"unknown view {view!r}")
        if not (0 <= target < base.n_rows):
            raise ValueError("target row out of range")
        diff = (base.patterns - base.row(target).astype(np.float64)) / 2.0
        self._set(base=base, target=target, view=view,
                  _domain=frozen_array(np.abs(diff) if view == "disagreement" else diff))

    def domain_values(self) -> np.ndarray:
        """Per-point values for the x-only views; the halved difference for
        excess_loss.  Computed once per view; the array is read-only."""
        return self._domain

    def values(self, xs: np.ndarray, ys: np.ndarray | None = None) -> np.ndarray:
        """Matrix of g values on sample entries, one row per classifier."""
        base = self._domain[:, xs]
        if self.view == "excess_loss":
            if ys is None:
                raise ValueError("excess_loss view needs labels")
            return -ys.astype(np.float64) * base
        return base

    def exact_means(self, instance: MassartInstance) -> np.ndarray:
        """P g per classifier, exact over the finite instance, which must be
        on the view's class and target."""
        if instance.target != self.target or (instance.cls is not self.base
                                              and not instance.cls.equals(self.base)):
            raise ValueError("instance class does not match the view")
        px = instance.px.weights
        if self.view == "excess_loss":
            dis = self.base.patterns != instance.fstar
            return dis @ (px * instance.abs_eta)
        return self.domain_values() @ px


def _row_bytes(a: np.ndarray) -> list[bytes]:
    """Each row of a float32 matrix as one bytes key."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, 4 * a.shape[1]))).ravel().tolist()


def _sum_table(ks: tuple[int, ...], tables: dict) -> tuple[np.ndarray, np.ndarray]:
    """(len(ks), cells) sum vectors of column groups of sizes ks, group j's sum
    running over -k_j, 2 - k_j, ..., k_j, and the number of sign vectors
    giving each, prod_j C(k_j, (S_j + k_j) / 2); read-only, memoized in
    tables by ks."""
    table = tables.get(ks)
    if table is None:
        sizes = list(accumulate((k + 1 for k in ks), operator.mul, initial=1))
        k = np.array(ks, dtype=np.intp)[:, None]
        plus = np.arange(sizes[-1]) // np.array(sizes[:-1], dtype=np.intp)[:, None] % (k + 1)
        table = tables[ks] = (frozen_array((2 * plus - k).astype(np.float32)),
                              frozen_array(_COMB[k, plus].prod(axis=0)))
    return table


def _exact_sums(terms: np.ndarray) -> bool:
    """Whether every sum of a row's terms, each taken at most once with either
    sign, is exact in float32: so it is when all terms are multiples of
    2^(e - 24), 2^e bounding len(row) times the largest |term|."""
    top = float(np.abs(terms).max()) * terms.shape[1]
    scaled = terms * np.float64(2.0 ** (24 - math.frexp(top)[1]))
    return math.isfinite(top) and bool((scaled == np.rint(scaled)).all())


def _running_max(high: np.ndarray, low: np.ndarray, pen: np.ndarray | None) -> np.ndarray:
    """(a, b) -> max_r (high[r, a] + low[r, b] - pen[r]) in float32, without
    the penalty when pen is None.  A block of high cells and of at most 2^16
    floats' worth of rows is one add into a buffer and one max-reduce over
    its rows (then a maximum with the earlier rows, when there are more)."""
    (rows, cells), width = high.shape, low.shape[1]
    sups = np.empty((cells, width), dtype=np.float32)
    depth = max(1, min(rows, (1 << 16) // width))
    tile = max(1, (1 << 16) // (depth * width))
    work = np.empty((depth, tile, width), dtype=np.float32)
    for a in range(0, cells, tile):
        out = sups[a:a + tile]
        for r in range(0, rows, depth):
            w = work[:min(depth, rows - r), :len(out)]
            np.add(high[r:r + depth, a:a + tile, None], low[r:r + depth, None, :], out=w)
            if pen is not None:
                w -= pen[r:r + depth, None, None]
            if r:
                np.maximum(out, w.max(axis=0), out=out)
            else:
                w.max(axis=0, out=out)
    return sups


def _sup_mean(values: np.ndarray, penalties: np.ndarray, reps: int,
              rng: np.random.Generator | None,
              tables: dict | None = None) -> tuple[float, float, bool, int]:
    """(mean, sd of per-replicate sup, exact, replicates) of
    E_eps max_g (sum_i eps_i g_i - penalty_g), by exact enumeration when rng
    is None, else from reps Monte Carlo draws of rng.  A check passes one
    tables dict to all its calls, so each half table (_sum_table) is built
    once per check."""
    v = np.asarray(values, dtype=np.float32)
    n = v.shape[1]
    if rng is None:
        if n > ENUM_CAP:
            raise ValueError(
                f"exact enumeration is limited to n <= {ENUM_CAP}; use exact=False for n = {n}")
        # adding 0 turns -0.0 into 0.0, so that equal values have equal bytes
        rows = np.concatenate([v, np.asarray(penalties, dtype=np.float32)[:, None]], axis=1)
        rows += 0
        # a row that repeats both its values and its penalty cannot raise the max
        rows = rows.take(list(dict(zip(_row_bytes(rows), count())).values()), axis=0)
        # a column enters every sum only through its group's sign sum, and its
        # negation through a sum of the same law: group the columns equal up
        # to sign, keyed by the smaller of their two byte strings, and drop
        # the zero columns
        cols = rows[:, :n].T
        zero = bytes(4 * len(rows))
        groups: dict[bytes, list[int]] = {}
        for j, keys in enumerate(zip(_row_bytes(cols), _row_bytes(0 - cols))):
            if keys[0] != zero:
                groups.setdefault(min(keys), []).append(j)
        ks = [len(js) for js in groups.values()]
        g, pen = cols[[js[0] for js in groups.values()]].T, rows[:, n]
        # split the groups so that both halves have about as many sum vectors
        halves, cells = ([], []), [1, 1]
        for j in sorted(range(len(ks)), key=ks.__getitem__, reverse=True):
            side = int(cells[1] < cells[0])
            halves[side].append(j)
            cells[side] *= ks[j] + 1
        tables = {} if tables is None else tables
        low_s, low_w = _sum_table(tuple(ks[j] for j in halves[0]), tables)
        high_s, high_w = _sum_table(tuple(ks[j] for j in halves[1]), tables)
        high = g[:, halves[1]] @ high_s
        if _exact_sums(rows):
            # high - pen is exact, so subtracting it once per row of the small
            # high table changes no sum
            high -= pen[:, None]
            pen = None
        sups = _running_max(high, g[:, halves[0]] @ low_s, pen)
        # a float32 supremum times a count below 2^17 is exact in float64, and
        # no partial sum exceeds 2^n max|sup|; einsum casts in small buffers
        total = float(high_w @ np.einsum("ab,b->a", sups, low_w))
        return total / (1 << sum(ks)), 0.0, True, 1 << n
    signs = rng.choice(np.float32([-1.0, 1.0]), size=(reps, n))
    sups = (signs @ v.T - penalties.astype(np.float32)).max(axis=1)
    return float(sups.mean()), float(sups.std(ddof=1)) if reps > 1 else 0.0, False, reps


def offset_rademacher_sup(values, c: float, exact: bool = True,
                          reps: int = 2000, seed: int = 0) -> ProcessEstimate:
    """(1/n) E_eps sup_g (sum_i eps_i g_i - c g_i^2).

    For values in {-1, 0, 1} the quadratic penalty equals c sum |g_i|.
    exact=True averages over all 2^n sign vectors (n <= 16), enumerating
    only the distinct vectors of sums over groups of columns equal up to
    sign (all-zero columns dropped) and weighting each by its number of
    sign vectors in a float64 sum.  For
    values in {-1, 0, 1} and c = 0 or c >= 2^-9, whose suprema span at
    most 53 - n bits, the mean is the exact mean of the float32
    per-sign-vector suprema; otherwise it is within float64 rounding of it.
    exact=False averages `reps` Monte Carlo draws and reports a 99% CI
    half-width.
    """
    if c < 0:
        raise ValueError("c must be >= 0")
    if not exact and reps < 1:
        raise ValueError("reps must be >= 1")
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 1:
        raise ValueError("values must be a nonempty matrix")
    n = v.shape[1]
    penalties = c * (v ** 2).sum(axis=1)
    rng = None if exact else next(spawn_rngs([(seed, (11,))]))
    mean, sd, _, m = _sup_mean(v, penalties, reps, rng)
    ci = 0.0 if exact else NORMAL_99 * sd / math.sqrt(m) / n
    return ProcessEstimate(value=mean / n, ci_halfwidth=ci, exact=exact,
                           replicates=m, seed=seed)


def shifted_process_sup(view: LossClassView, instance: MassartInstance,
                        smp: LabeledSample, c: float) -> float:
    """sup_g (P g - (1 + c) P_n g), with P g exact over the finite instance."""
    if c < 0:
        raise ValueError("c must be >= 0")
    if int(smp.xs.max()) >= instance.cls.n_points:
        raise ValueError("sample references unknown domain points")
    return _shifted_sup(view.exact_means(instance), view.values(smp.xs, smp.ys), c)


def _shifted_sup(pg: np.ndarray, vals: np.ndarray, c: float) -> float:
    """sup_g (P g - (1 + c) P_n g) from the means pg and the sample values."""
    return float((pg - (1.0 + c) * vals.mean(axis=1)).max())


def _trials(instance: MassartInstance, n: int, trials: int, seed: int, pairs, *sign_keys):
    """A check's trial samples, one per (seed, key) pair in one draw_samples
    call, and sup(values, penalties), the _sup_mean of one sign draw: its
    calls in trial t take the Monte Carlo signs of the stream of (seed, (t,
    key)) for each sign key in turn past ENUM_CAP, none up to it, and share
    one tables dict.  Symmetrization and contraction sample from trial seeds
    spawned under keys 1 and 3; localization samples the stream of (seed,
    (t, 6)) and reads only the points, the first n uniforms of each sample."""
    if trials < 100:
        raise ValueError("need at least 100 trials")
    samples = zip(*draw_samples(instance, n, _pcg_states(pairs)))
    signs = (repeat(None) if n <= ENUM_CAP else
             spawn_rngs((seed, (t, key)) for t in range(trials) for key in sign_keys))
    tables: dict = {}

    def sup(values: np.ndarray, penalties: np.ndarray) -> float:
        return _sup_mean(values, penalties, INNER_REPS, next(signs), tables)[0]
    return samples, sup


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of per-trial values."""
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def _one_sided(name: str, lhs: np.ndarray, rhs: np.ndarray, details: dict) -> InequalityReport:
    """E lhs <= E rhs from per-trial values, with 3-sigma slack: passes unless
    the lhs mean exceeds the rhs mean by more than 3 hypot(lhs_se, rhs_se)."""
    (lhs_m, lhs_se), (rhs_m, rhs_se) = _mean_se(lhs), _mean_se(rhs)
    return InequalityReport(
        name=name, lhs=lhs_m, rhs=rhs_m, lhs_ci=NORMAL_99 * lhs_se, rhs_ci=NORMAL_99 * rhs_se,
        passed=lhs_m <= rhs_m + 3.0 * math.hypot(lhs_se, rhs_se), details=details)


def check_symmetrization_expectation(instance: MassartInstance, c: float, n: int,
                                     trials: int, seed: int) -> InequalityReport:
    """Shifted symmetrization in expectation, over the excess loss class:
    E sup (P - (1+c)P_n) g  <=  ((c+2)/n) E E_eps sup (sum eps_i g_i - (c/(c+2)) g_i).
    """
    seeds = spawn_seeds((seed, (t, 1)) for t in range(trials))
    samples, sup = _trials(instance, n, trials, seed, ((s, ()) for s in seeds), 2)
    shift = c / (c + 2.0)
    view = LossClassView(instance.cls, instance.target, "excess_loss")
    pg = view.exact_means(instance)
    lhs, rhs = np.empty((2, trials))
    for t, (xs, ys) in enumerate(samples):
        vals = view.values(xs, ys)
        lhs[t] = _shifted_sup(pg, vals, c)
        rhs[t] = (c + 2.0) / n * sup(vals, shift * vals.sum(axis=1))
    return _one_sided("shifted_symmetrization", lhs, rhs,
                      {"c": c, "n": n, "trials": trials, "seed": seed, "view": view.view})


def check_contraction(instance: MassartInstance, c: float, n: int, trials: int,
                      seed: int) -> InequalityReport:
    """Excess-loss contraction: the offset Rademacher expectation of the
    excess loss class is at most the halved-difference term plus (3c/2)
    times a multiplier term over the disagreement class, the multipliers
    being (2/3)(h'_i + 1[target != Y] - 1[target = Y])."""
    if not (0 <= c <= 1):
        raise ValueError("c must lie in [0, 1]")
    seeds = spawn_seeds((seed, (t, 3)) for t in range(trials))
    samples, sup = _trials(instance, n, trials, seed, ((s, ()) for s in seeds), 4, 5)
    cls, target = instance.cls, instance.target
    excess = LossClassView(cls, target, "excess_loss")
    halved = LossClassView(cls, target, "halved_difference")
    disagree = LossClassView(cls, target, "disagreement")
    h = instance.margin
    lhs, rhs = np.empty((2, trials))
    for t, (xs, ys) in enumerate(samples):
        gy = excess.values(xs, ys)
        lhs[t] = sup(gy, c * gy.sum(axis=1))
        fv = halved.values(xs)
        hp = instance.abs_eta[xs]
        flip = (instance.fstar[xs] != ys)
        xi = (2.0 / 3.0) * (hp + np.where(flip, 1.0, -1.0))
        gv = disagree.values(xs)
        term2 = float((gv @ xi - (h / 3.0) * gv.sum(axis=1)).max())
        rhs[t] = sup(fv, 0.5 * h * c * np.abs(fv).sum(axis=1)) + 1.5 * c * term2
    return _one_sided("excess_loss_contraction", lhs, rhs,
                      {"c": c, "n": n, "h": h, "trials": trials, "seed": seed})


def _check_k_loc(k_loc: float) -> None:
    if not (0 < k_loc < math.inf):
        raise ValueError(f"k_loc must be finite and positive, not {k_loc!r}")


def check_localization_bound(instance: MassartInstance, view_kind: str, c: float,
                             n: int, trials: int, seed: int,
                             k_loc: float = 64.0) -> InequalityReport:
    """Localized multiplier bound: (1/n) E_xi sup (sum xi_i g_i - 4c|g_i|)
    against the fixed point gamma_loc(c, c, n) / n, with Rademacher xi.

    The ratio threshold k_loc is a recorded engineering constant, not a
    value the inequality pins down.
    """
    if not (0 < c <= 0.25):
        raise ValueError("c must lie in (0, 1/4]")
    _check_k_loc(k_loc)
    if view_kind not in ("halved_difference", "disagreement"):
        raise ValueError("view must contain the zero function: use halved_difference or disagreement")
    samples, sup = _trials(instance, n, trials, seed,
                           [(seed, (t, 6)) for t in range(trials)], 7)
    view = LossClassView(instance.cls, instance.target, view_kind)
    vals_domain = view.domain_values()  # the target's own row is the zero function
    totals = np.empty(trials)
    for t, (xs, _) in enumerate(samples):
        vals = vals_domain[:, xs]
        totals[t] = sup(vals, 4.0 * c * np.abs(vals).sum(axis=1)) / n
    fp = gamma_loc(instance.cls, c, c, n, seed=seed)
    bound = fp.gamma / n
    value, se = _mean_se(totals)
    ratio = value / bound
    return InequalityReport(
        name="localization_bound", lhs=value, rhs=k_loc * bound,
        lhs_ci=NORMAL_99 * se, rhs_ci=0.0,
        passed=ratio <= k_loc,
        details={"c": c, "n": n, "trials": trials, "seed": seed, "view": view_kind,
                 "gamma_loc": fp.gamma, "ratio": ratio, "k_loc": k_loc})


def sudakov_check(vectors, trials: int = 4000, seed: int = 0) -> InequalityReport:
    """Minoration ratio for a separated bounded vector family (informational).

    Estimates E_eps sup_v sum eps_i v_i and divides by
    a sqrt(tlog N) min a^2/b, where a is the smallest pairwise l2 distance
    and b the largest sup-norm.  The implied constant is unspecified, so
    the report never fails; it records the fitted ratio.
    """
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 1:
        raise ValueError("vectors must be a nonempty matrix")
    v = distinct(v, axis=0)
    nvec, n = v.shape
    exact = n <= ENUM_CAP
    if not exact and trials < 1:
        raise ValueError("trials must be >= 1")
    b = float(np.abs(v).max())
    a = 0.0
    if nvec > 1:
        # the smallest pairwise l2 distance, one block of rows at a time in
        # buffers of about 2^16 differences
        a, step = math.inf, max(1, (1 << 16) // (nvec * n))
        for i in range(0, nvec, step):
            d2 = np.sqrt(((v[i:i + step, None, :] - v[None, :, :]) ** 2).sum(axis=2))
            d2[np.arange(len(d2)), np.arange(i, i + len(d2))] = np.inf
            a = min(a, float(d2.min()))
    rng = None if exact else next(spawn_rngs([(seed, (8,))]))
    mean, sd, _, m = _sup_mean(v, np.zeros(nvec), trials, rng)
    denom = min(a * math.sqrt(tlog(nvec)), (a * a / b) if b > 0 else math.inf)
    ratio = 0.0 if denom == 0 or nvec == 1 else mean / denom
    se = 0.0 if exact else sd / math.sqrt(m)
    return InequalityReport(
        name="sudakov_minoration", lhs=mean, rhs=denom,
        lhs_ci=NORMAL_99 * se, rhs_ci=0.0, passed=True,
        details={"a": a, "b": b, "count": nvec, "ratio": ratio,
                 "mode": "exact_enumeration" if exact else "monte_carlo",
                 "trials": m, "seed": seed})
