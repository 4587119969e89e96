"""Offset Rademacher, shifted empirical, and multiplier processes for loss views.

Exact enumeration over all 2^n sign vectors is used up to a size cap, Monte
Carlo with per-replicate seeds beyond it.  Enumeration groups equal sample
columns (multiplicity k_j), whose signs enter every sum only through the
group sum S_j, and drops rows that repeat their values and penalty.  It adds
the sums of two half tables of group sum vectors a block of rows at a time
into a float32 running max over the prod_j (k_j + 1) cells, at most 2^n of
them, never forming the (cells x rows) product.  The mean weighs each cell
by its prod_j C(k_j, (S_j + k_j) / 2) sign vectors in a float64 dot
product, which is exact while the suprema span at most 53 - n bits (all
multiples of 2^-F below 2^(53 - n - F)): then it is the exact mean of the
float32 per-sign-vector suprema.  That holds for values in {-1, 0, 1} with
penalties c m, integer |m| <= n and c = 0 or |c| >= 2^-9.  The inequality
checks are one-sided statistical tests with 3-sigma slack: they can refute
but not prove, so they are calibrated to be stable under reseeding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .classes import HypothesisClass, LabeledSample, MassartInstance, sample
from .geometry import gamma_loc
from .util import NORMAL_99, make_rng, tlog

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


@dataclass(frozen=True)
class ProcessEstimate:
    value: float
    ci_halfwidth: float
    exact: bool                  # exact enumeration, else Monte Carlo
    replicates: int
    seed: int | None = None


@dataclass(frozen=True)
class InequalityReport:
    name: str
    lhs: float
    rhs: float
    lhs_ci: float
    rhs_ci: float
    passed: bool
    details: dict

    def as_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "lhs_ci": self.lhs_ci, "rhs_ci": self.rhs_ci,
                "pass": self.passed, **self.details}


@dataclass(frozen=True)
class LossClassView:
    """Pointwise derived function class around a target classifier.

    disagreement:       g_f(x)   = 1[f(x) != target(x)]      in {0, 1}
    halved_difference:  g_f(x)   = (f(x) - target(x)) / 2    in {-1, 0, 1}
    excess_loss:        g_f(x,y) = 1[f(x) != y] - 1[target(x) != y]
                                 = -y * (f(x) - target(x)) / 2
    """

    base: HypothesisClass
    target: int
    view: str

    def __post_init__(self):
        if self.view not in ("excess_loss", "disagreement", "halved_difference"):
            raise ValueError(f"unknown view {self.view!r}")
        if not (0 <= self.target < self.base.n_rows):
            raise ValueError("target row out of range")

    def domain_values(self) -> np.ndarray:
        """Per-point values for the x-only views; the halved difference for excess_loss."""
        fstar = self.base.row(self.target).astype(np.float64)
        diff = (self.base.patterns - fstar) / 2.0
        if self.view == "disagreement":
            return np.abs(diff)
        return diff

    def values(self, xs: np.ndarray, ys: np.ndarray | None = None) -> np.ndarray:
        """Matrix of g values on sample entries, one row per classifier."""
        base = self.domain_values()[:, xs]
        if self.view == "excess_loss":
            if ys is None:
                raise ValueError("excess_loss view needs labels")
            return -ys.astype(np.float64) * base
        return base

    def exact_means(self, instance: MassartInstance) -> np.ndarray:
        """P g per classifier, exact over the finite instance."""
        if instance.cls is not self.base and not instance.cls.equals(self.base):
            raise ValueError("instance class does not match the view")
        px = instance.px.weights
        if self.view == "excess_loss":
            dis = self.base.patterns != instance.fstar
            return dis @ (px * instance.abs_eta)
        return self.domain_values() @ px


def _classes(keys) -> tuple[list[int], list[int]]:
    """First index and size of each class of equal keys."""
    classes: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i)
    return [ix[0] for ix in classes.values()], [len(ix) for ix in classes.values()]


def _sum_table(ks: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(len(ks), cells) sum vectors of column groups of sizes ks, group j's sum
    running over -k_j, 2 - k_j, ..., k_j, and the number of sign vectors
    giving each, prod_j C(k_j, (S_j + k_j) / 2)."""
    sizes = list(accumulate((k + 1 for k in ks), operator.mul, initial=1))
    k = np.array(ks, dtype=np.intp)[:, None]
    plus = np.arange(sizes[-1]) // np.array(sizes[:-1], dtype=np.intp)[:, None] % (k + 1)
    return (2 * plus - k).astype(np.float32), _COMB[k, plus].prod(axis=0)


def _running_max(high: np.ndarray, low: np.ndarray, pen: np.ndarray) -> np.ndarray:
    """(a, b) -> max_r (high[r, a] + low[r, b] - pen[r]) in float32, adding a
    block of rows at a time into buffers of at most 2^16 floats."""
    sups = np.full((high.shape[1], low.shape[1]), -np.inf, dtype=np.float32)
    block = max(1, (1 << 16) // sups.size)
    work = np.empty((block, *sups.shape), dtype=np.float32)
    for start in range(0, len(pen), block):
        w, part = work[:min(block, len(pen) - start)], slice(start, start + block)
        np.add(high[part, :, None], low[part, None, :], out=w)
        w -= pen[part, None, None]
        np.maximum(sups, w[0] if len(w) == 1 else w.max(axis=0), out=sups)
    return sups


def _sup_mean(values: np.ndarray, penalties: np.ndarray, exact: bool, reps: int,
              rng: np.random.Generator | None) -> tuple[float, float, bool, int]:
    """(mean, sd of per-replicate sup, exact, replicates) of
    E_eps max_g (sum_i eps_i g_i - penalty_g), by exact enumeration or from
    reps Monte Carlo draws of rng."""
    v = np.asarray(values, dtype=np.float32)
    n = v.shape[1]
    if exact:
        if n > ENUM_CAP:
            raise ValueError(
                f"exact enumeration is limited to n <= {ENUM_CAP}; use monte_carlo for n = {n}")
        pen = np.asarray(penalties, dtype=np.float32)
        # a row that repeats both its values and its penalty cannot raise the max
        rows, _ = _classes(zip(*v.T.tolist(), pen.tolist()))
        # equal columns enter every row's sum only through their group's sign sum
        cols, ks = _classes(zip(*v[rows].tolist()))
        g = np.column_stack([v[rows][:, cols], pen[rows]])
        # split the groups so that both halves have about as many sum vectors
        halves, cells = ([], []), [1, 1]
        for j in sorted(range(len(ks)), key=ks.__getitem__, reverse=True):
            side = int(cells[1] < cells[0])
            halves[side].append(j)
            cells[side] *= ks[j] + 1
        low_s, low_w = _sum_table([ks[j] for j in halves[0]])
        high_s, high_w = _sum_table([ks[j] for j in halves[1]])
        sups = _running_max(g[:, halves[1]] @ high_s, g[:, halves[0]] @ low_s, g[:, -1])
        # a float32 supremum times a count below 2^17 is exact in float64, and
        # no partial sum exceeds 2^n max|sup|; einsum casts in small buffers
        total = float(high_w @ np.einsum("ab,b->a", sups, low_w))
        return total / (1 << n), 0.0, True, 1 << n
    signs = rng.choice(np.float32([-1.0, 1.0]), size=(reps, n))
    sups = (signs @ v.T - penalties.astype(np.float32)).max(axis=1)
    return float(sups.mean()), float(sups.std(ddof=1)) if reps > 1 else 0.0, False, reps


def offset_rademacher_sup(values, c: float, mode: str = "exact_enumeration",
                          reps: int = 2000, seed: int = 0) -> ProcessEstimate:
    """(1/n) E_eps sup_g (sum_i eps_i g_i - c g_i^2).

    For values in {-1, 0, 1} the quadratic penalty equals c sum |g_i|.
    Exact mode averages over all 2^n sign vectors (n <= 16), enumerating
    only the distinct vectors of sums over groups of equal columns and
    weighting each by its number of sign vectors in a float64 sum.  For
    values in {-1, 0, 1} and c = 0 or c >= 2^-9, whose suprema span at
    most 53 - n bits, the mean is the exact mean of the float32
    per-sign-vector suprema; otherwise it is within float64 rounding of it.
    Monte Carlo averages `reps` draws and reports a 99% CI half-width.
    """
    if c < 0:
        raise ValueError("c must be >= 0")
    if mode not in ("exact_enumeration", "monte_carlo"):
        raise ValueError(f"unknown mode {mode!r}")
    exact = mode == "exact_enumeration"
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 1:
        raise ValueError("values must be a nonempty matrix")
    n = v.shape[1]
    penalties = c * (v ** 2).sum(axis=1)
    mean, sd, _, m = _sup_mean(v, penalties, exact, reps, make_rng(seed, 11))
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
    pg = view.exact_means(instance)
    vals = view.values(smp.xs, smp.ys)
    png = vals.mean(axis=1)
    return float((pg - (1.0 + c) * png).max())


def _one_sided(name: str, lhs: np.ndarray, rhs: np.ndarray, details: dict) -> InequalityReport:
    """E lhs <= E rhs from per-trial values, with 3-sigma slack: passes unless
    the lhs mean exceeds the rhs mean by more than 3 hypot(lhs_se, rhs_se)."""
    lhs_m, rhs_m = float(lhs.mean()), float(rhs.mean())
    lhs_se = float(lhs.std(ddof=1) / math.sqrt(len(lhs)))
    rhs_se = float(rhs.std(ddof=1) / math.sqrt(len(rhs)))
    return InequalityReport(
        name=name, lhs=lhs_m, rhs=rhs_m, lhs_ci=NORMAL_99 * lhs_se, rhs_ci=NORMAL_99 * rhs_se,
        passed=lhs_m <= rhs_m + 3.0 * math.hypot(lhs_se, rhs_se), details=details)


def check_symmetrization_expectation(view: LossClassView, instance: MassartInstance,
                                     c: float, n: int, trials: int, seed: int) -> InequalityReport:
    """Shifted symmetrization in expectation:
    E sup (P - (1+c)P_n) g  <=  ((c+2)/n) E E_eps sup (sum eps_i g_i - (c/(c+2)) g_i).
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    shift = c / (c + 2.0)
    lhs = np.empty(trials)
    rhs = np.empty(trials)
    for t in range(trials):
        smp = sample(instance, n, seed=int(make_rng(seed, t, 1).integers(2 ** 31)))
        lhs[t] = shifted_process_sup(view, instance, smp, c)
        vals = view.values(smp.xs, smp.ys)
        penalties = shift * vals.sum(axis=1)
        mean, _, _, _ = _sup_mean(vals, penalties, n <= ENUM_CAP, INNER_REPS,
                                  make_rng(seed, t, 2))
        rhs[t] = (c + 2.0) / n * mean
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
    if trials < 100:
        raise ValueError("need at least 100 trials")
    cls, target = instance.cls, instance.target
    excess = LossClassView(cls, target, "excess_loss")
    halved = LossClassView(cls, target, "halved_difference")
    disagree = LossClassView(cls, target, "disagreement")
    h = instance.margin
    lhs = np.empty(trials)
    rhs = np.empty(trials)
    for t in range(trials):
        smp = sample(instance, n, seed=int(make_rng(seed, t, 3).integers(2 ** 31)))
        xs, ys = smp.xs, smp.ys
        gy = excess.values(xs, ys)
        mean, _, _, _ = _sup_mean(gy, c * gy.sum(axis=1), n <= ENUM_CAP, INNER_REPS,
                                  make_rng(seed, t, 4))
        lhs[t] = mean
        fv = halved.values(xs)
        mean1, _, _, _ = _sup_mean(fv, 0.5 * h * c * np.abs(fv).sum(axis=1),
                                   n <= ENUM_CAP, INNER_REPS, make_rng(seed, t, 5))
        hp = instance.abs_eta[xs]
        flip = (instance.fstar[xs] != ys)
        xi = (2.0 / 3.0) * (hp + np.where(flip, 1.0, -1.0))
        gv = disagree.values(xs)
        term2 = float((gv @ xi - (h / 3.0) * gv.sum(axis=1)).max())
        rhs[t] = mean1 + 1.5 * c * term2
    return _one_sided("excess_loss_contraction", lhs, rhs,
                      {"c": c, "n": n, "h": h, "trials": trials, "seed": seed})


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
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if view_kind not in ("halved_difference", "disagreement"):
        raise ValueError("view must contain the zero function: use halved_difference or disagreement")
    view = LossClassView(instance.cls, instance.target, view_kind)
    vals_domain = view.domain_values()
    if not np.any(np.all(vals_domain == 0, axis=1)):
        vals_domain = np.vstack([vals_domain, np.zeros(vals_domain.shape[1])])
    totals = np.empty(trials)
    for t in range(trials):
        xs = instance.px.cdf.searchsorted(make_rng(seed, t, 6).random(n), side="right")
        vals = vals_domain[:, xs]
        mean, _, _, _ = _sup_mean(vals, 4.0 * c * np.abs(vals).sum(axis=1),
                                  n <= ENUM_CAP, INNER_REPS, make_rng(seed, t, 7))
        totals[t] = mean / n
    fp = gamma_loc(instance.cls, c, c, n, seed=seed)
    bound = fp.gamma / n
    value = float(totals.mean())
    se = float(totals.std(ddof=1) / math.sqrt(trials))
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
    v = np.unique(np.asarray(vectors, dtype=np.float64), axis=0)
    nvec, n = v.shape
    b = float(np.abs(v).max()) if nvec else 0.0
    if nvec > 1:
        diffs = v[:, None, :] - v[None, :, :]
        d2 = np.sqrt((diffs ** 2).sum(axis=2))
        a = float(d2[~np.eye(nvec, dtype=bool)].min())
    else:
        a = 0.0
    mean, sd, exact, m = _sup_mean(v, np.zeros(nvec), n <= ENUM_CAP, trials, make_rng(seed, 8))
    denom = min(a * math.sqrt(tlog(nvec)), (a * a / b) if b > 0 else math.inf)
    ratio = 0.0 if denom == 0 or nvec == 1 else mean / denom
    se = 0.0 if exact else sd / math.sqrt(m)
    return InequalityReport(
        name="sudakov_minoration", lhs=mean, rhs=denom,
        lhs_ci=NORMAL_99 * se, rhs_ci=0.0, passed=True,
        details={"a": a, "b": b, "count": nvec, "ratio": ratio,
                 "mode": "exact_enumeration" if exact else "monte_carlo",
                 "trials": m, "seed": seed})
