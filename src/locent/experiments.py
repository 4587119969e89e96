"""Rate sweeps and bound-verification suites tying ERM outcomes to fixed points.

Constants hidden in asymptotic statements are always fitted and reported,
never asserted: pass criteria are stability of the implied constant across
the grid, with the ratio tolerance recorded in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import (DomainDistribution, HypothesisClass, MassartInstance,
                      make_massart_instance, make_star_class)
from .erm import AdversarialSpec, ErmPolicy, _run_trials, excess_risk_all
from .measures import growth_function, star_number, vc_dimension
from .seeding import spawn_seeds
from .util import mean_ci99, tlog

# run_rate_sweep and check_sandwich import geometry themselves, on their first
# line: star-theorem runs neither, so it skips compiling the fixed-point stack

__all__ = [
    "SweepConfig",
    "SweepTable",
    "run_rate_sweep",
    "check_sandwich",
    "check_star_theorem",
    "star_class_separation",
    "lower_bound_report",
    "fit_loglog_slope",
]

CSV_HEADER = "h,n,trials,mean_excess,ci,gamma_loc,gamma_star,ratio,d,s,exact_flags"


@dataclass(frozen=True)
class SweepConfig:
    instance_factory: object            # (h, n) -> MassartInstance
    h_grid: tuple
    n_grid: tuple
    trials: int
    policy: str = "first_index"
    seed: int = 0
    search: str = "auto"

    def __post_init__(self):
        if not self.h_grid or not self.n_grid:
            raise ValueError("grids must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class SweepTable:
    rows: tuple

    def to_csv_lines(self) -> list[str]:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                repr(r["h"]), str(r["n"]), str(r["trials"]),
                repr(r["mean_excess"]), repr(r["ci"]),
                str(r["gamma_loc"]), str(r["gamma_star"]),
                repr(r["ratio"]), str(r["d"]), str(r["s"]), r["exact_flags"],
            ]))
        return lines


def _cell_mean_excess(instance: MassartInstance, n: int, trials: int,
                      policy_kind: str, seed: int, cell_key: tuple) -> tuple[float, float]:
    policy = ErmPolicy(policy_kind, instance if policy_kind == "pessimistic" else None)
    seeds = spawn_seeds((seed, (*cell_key, t)) for t in range(trials))
    out = excess_risk_all(instance)[_run_trials(instance, n, seeds, policy).chosen]
    return mean_ci99(out)


def _sweep_cell(config: SweepConfig, hi: int, h, ni: int, n, memo: dict,
                gamma_loc, gamma_star) -> dict:
    instance = config.instance_factory(h, n)
    mean, ci = _cell_mean_excess(instance, n, config.trials,
                                 config.policy, config.seed, (hi, ni))
    cls = instance.cls
    # equal pattern matrices share their fixed points and measures
    cls_key = (cls.patterns.shape, cls.patterns.tobytes())
    key = (cls_key, "gamma_loc", h, n)
    if key not in memo:
        memo[key] = gamma_loc(cls, h, h, n, search=config.search, seed=config.seed)
    fp = memo[key]
    key = (cls_key, "gamma_star", n)
    if key not in memo:
        memo[key] = gamma_star(cls, 0.5, n, search=config.search, seed=config.seed)
    fs = memo[key]
    flags = ["loc_exact" if fp.exact else "loc_heuristic",
             "star_exact" if fs.exact else "star_heuristic"]
    # d and s are per-class diagnostics, computed once per class
    key = (cls_key, "measures")
    if key not in memo:
        memo[key] = (vc_dimension(cls), star_number(cls))
    d, s = memo[key]
    flags.append("d_exact" if d.exact else "d_lower")
    flags.append("s_exact" if s.exact else "s_lower")
    ratio = mean * n / fp.gamma if fp.gamma else float("nan")
    return {"h": h, "n": n, "trials": config.trials,
            "mean_excess": mean, "ci": ci,
            "gamma_loc": fp.gamma, "gamma_star": fs.gamma,
            "ratio": ratio, "d": d.value, "s": s.value,
            "exact_flags": "|".join(flags)}


def run_rate_sweep(config: SweepConfig) -> SweepTable:
    """Mean excess risk per (h, n) cell with the matching entropy fixed points.

    Cells are deterministic given the config seed (per-cell seeds are
    derived independently).  Errors propagate: an unknown search name
    raises ValueError from the first cell's fixed point.  Fixed points and
    measures are memoized per pattern matrix within the sweep.
    """
    from .geometry import gamma_loc, gamma_star
    memo: dict = {}
    rows = [_sweep_cell(config, hi, h, ni, n, memo, gamma_loc, gamma_star)
            for hi, h in enumerate(config.h_grid)
            for ni, n in enumerate(config.n_grid)]
    rows.sort(key=lambda r: (r["h"], r["n"]))
    return SweepTable(rows=tuple(rows))


@dataclass(frozen=True)
class SandwichReport:
    gamma: int
    lower_form: float
    upper_form: float
    ratio_lower: float
    ratio_upper: float
    explicit_ok: bool
    soft: bool
    details: dict


def check_sandwich(cls: HypothesisClass, h: float, n: int, search: str = "auto",
                   seed: int = 0) -> SandwichReport:
    """Fixed point against its VC/star envelope.

    Reports gamma_loc(h, h, n) against the lower form
    (d + log(n h^2 min s)) / h  min  sqrt(d n) and the upper form
    (d log(n h^2 / d min s) + d log(1/h)) / h, and hard-checks the explicit
    entropy bound log M_loc <= 2 d log(11 e^2 (n/gamma min s/h)) on every
    scanned packing value (greedy values are lower bounds of the true
    packing, so they must satisfy the bound as well).
    """
    from .geometry import gamma_loc, packing_log_vc_bound
    dres, sres = vc_dimension(cls), star_number(cls)
    d_val, s_val = dres.value, sres.value
    if d_val < 1:
        raise ValueError(f"the sandwich forms divide by the VC dimension, here d = {d_val}")
    fp = gamma_loc(cls, h, h, n, search=search, seed=seed)
    soft = not (dres.exact and sres.exact and fp.exact)
    gamma = fp.gamma
    lower = min((d_val + tlog(min(n * h * h, s_val))) / h, math.sqrt(d_val * n))
    upper = (d_val * tlog(min(n * h * h / d_val, s_val)) + d_val * tlog(1.0 / h)) / h
    explicit_ok = True
    worst = None
    for row in fp.scan:
        bound = packing_log_vc_bound(d_val, s_val, n, row["gamma"], h)
        if row["log_packing"] > bound + 1e-9:
            explicit_ok = False
            worst = row
    return SandwichReport(
        gamma=gamma, lower_form=lower, upper_form=upper,
        ratio_lower=gamma / lower, ratio_upper=gamma / upper,
        explicit_ok=explicit_ok, soft=soft,
        details={"h": h, "n": n, "d": d_val, "s": s_val,
                 "violating_row": worst, "exact": fp.exact})


@dataclass(frozen=True)
class StarTheoremReport:
    mean_risk: float
    ci: float
    bound: float
    implied_constant: float
    s: int
    growth_value: int
    exact: bool
    details: dict


def check_star_theorem(cls: HypothesisClass, n: int, trials: int, seed: int,
                       target: int = 0) -> StarTheoremReport:
    """Realizable mean ERM risk against log of the growth function at s min n."""
    s = star_number(cls)
    m = max(1, min(s.value, n))
    growth = growth_function(cls, m)
    bound = tlog(growth.value) / n
    instance = make_massart_instance(cls, target, 1.0)
    mean, ci = _cell_mean_excess(instance, n, trials, "first_index", seed, (0,))
    return StarTheoremReport(mean_risk=mean, ci=ci, bound=bound,
                             implied_constant=mean / bound, s=s.value,
                             growth_value=growth.value,
                             exact=s.exact and growth.exact,
                             details={"n": n, "trials": trials, "seed": seed,
                                      "m": m, "target": target})


def star_class_separation(d: int, s: int, n: int, trials: int, seed: int) -> dict:
    """Worst-minimizer mean risk of the wide class against the narrow class
    with matched VC dimension and star number.

    The marginal puts weight 1/s^2 on each of the first d-1 points (the
    narrow class's head), remainder uniform: the distribution-free contrast
    between the two classes is a worst-case statement and the uniform
    marginal does not exhibit it at small n, so the head is downweighted.
    Returns means and their ratio wide/narrow.
    """
    skew = 1.0 / (s * s)
    weights = np.full(s, (1.0 - (d - 1) * skew) / (s - (d - 1)))
    weights[: d - 1] = skew
    px = DomainDistribution(weights)
    out = {}
    for name, variant in (("wide", "F1"), ("narrow", "F2")):
        cls = make_star_class(variant, d, s)
        target = 0  # all-minus row in both generators
        assert np.all(cls.row(target) == -1)
        instance = make_massart_instance(cls, target, 1.0, px=px)
        mean, ci = _cell_mean_excess(instance, n, trials, "pessimistic", seed,
                                     (0 if name == "wide" else 1,))
        out[name] = {"mean": mean, "ci": ci, "rows": cls.n_rows}
    out["ratio"] = out["wide"]["mean"] / out["narrow"]["mean"]
    out["params"] = {"d": d, "s": s, "n": n, "trials": trials, "seed": seed,
                     "head_weight": skew}
    return out


def lower_bound_report(spec: AdversarialSpec, n_budget: int, trials: int,
                       seed: int) -> dict:
    """Max over the adversarial family of mean ERM excess risk at n_budget
    samples, against the reference level (1-h) gamma / (n c); informational,
    since the bound quantifies over all learners."""
    worst = (None, -1.0)
    for i, instance in enumerate(spec.instances):
        mean, _ = _cell_mean_excess(instance, n_budget, trials, "first_index",
                                    seed, (i,))
        if mean > worst[1]:
            worst = (i, mean)
    reference = (1.0 - spec.h) * spec.gamma / (n_budget * spec.pseudoconvexity)
    return {"family_size": spec.size, "family_size_with_center": spec.size_with_center,
            "eps": spec.eps, "gamma": spec.gamma, "n_positions": spec.n_positions,
            "pseudoconvexity": spec.pseudoconvexity, "worst_member": worst[0],
            "worst_mean_excess": worst[1], "reference_level": reference,
            "implied_constant": worst[1] / reference if reference > 0 else float("inf"),
            "exact": spec.exact}


def fit_loglog_slope(ns, values) -> tuple[float, float]:
    """Least-squares slope of ln(value) on ln(n), with its standard error."""
    ns = np.asarray(ns, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ns.size < 4:
        raise ValueError("need at least 4 points")
    if np.any(vs <= 0):
        raise ValueError("values must be positive for a log-log fit")
    x = np.log(ns)
    y = np.log(vs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(ns.size - 2, 1)
    sigma2 = float(resid @ resid) / dof
    sxx = float(((x - x.mean()) ** 2).sum())
    return float(slope), math.sqrt(sigma2 / sxx)
