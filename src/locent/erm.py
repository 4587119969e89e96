"""Empirical risk minimization with explicit tie-breaking, exact excess risk,
version-space diagnostics, and the bounded-noise adversarial family with
exact KL accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import (DomainDistribution, HypothesisClass, LabeledSample,
                      MassartInstance, make_massart_instance, sample)
from .geometry import pseudoconvexity_constant
from .measures import vc_dimension
from .util import make_rng, mean_ci99

__all__ = [
    "ErmPolicy",
    "TrialReport",
    "AdversarialSpec",
    "KLReport",
    "empirical_risks",
    "erm",
    "excess_risk",
    "excess_risk_all",
    "run_trial",
    "version_space_disagreement",
    "build_adversarial_family",
    "kl_product",
    "kl_closed_form",
    "kl_exact",
]

# Most positions N an adversarial family spans.  Read when the family is
# built, so a test can patch it; nothing else sets it.
POSITION_CAP = 512


@dataclass(frozen=True)
class ErmPolicy:
    """Tie-breaking rule among empirical risk minimizers.

    first_index: lowest row index.
    seeded_random: uniform among minimizers, driven by the trial seed.
    pessimistic: the minimizer with the largest true excess risk; this is
    an evaluation-only policy (it peeks at the instance) used to measure
    how bad a worst-case minimizer choice can be.
    """

    kind: str
    instance: MassartInstance | None = None

    def __post_init__(self):
        if self.kind not in ("first_index", "seeded_random", "pessimistic"):
            raise ValueError(f"unknown policy {self.kind!r}")
        if self.kind == "pessimistic" and self.instance is None:
            raise ValueError("pessimistic tie-breaking needs the true instance")


def empirical_risks(cls: HypothesisClass, smp: LabeledSample) -> np.ndarray:
    """Per-row empirical 0-1 risk, via a label-weighted point histogram."""
    n = smp.size
    w = np.bincount(smp.xs, weights=smp.ys.astype(np.float64), minlength=cls.n_points)
    scores = cls.patterns.astype(np.float64) @ w
    return (n - scores) / (2.0 * n)


def excess_risk(instance: MassartInstance, row: int) -> float:
    """Exact excess risk sum_x px(x) |eta(x)| 1[f(x) != target(x)]."""
    dis = instance.cls.row(row) != instance.fstar
    return float((instance.px.weights * instance.abs_eta)[dis].sum())


def excess_risk_all(instance: MassartInstance) -> np.ndarray:
    dis = instance.cls.patterns != instance.fstar
    return dis @ (instance.px.weights * instance.abs_eta)


def erm(cls: HypothesisClass, smp: LabeledSample, policy: ErmPolicy,
        seed: int = 0) -> int:
    """A row minimizing empirical risk, ties broken per policy."""
    return _select(empirical_risks(cls, smp), policy, seed)


def _select(risks: np.ndarray, policy: ErmPolicy, seed: int) -> int:
    best = risks.min()
    ties = np.nonzero(risks <= best + 1e-12)[0]
    if policy.kind == "first_index" or ties.size == 1:
        return int(ties[0])
    if policy.kind == "seeded_random":
        return int(make_rng(seed, 21).choice(ties))
    exc = excess_risk_all(policy.instance)[ties]
    return int(ties[np.argmax(exc)])


@dataclass(frozen=True)
class TrialReport:
    n: int
    seed: int
    chosen: int
    empirical_risk: float
    excess: float
    version_space_size: int
    dis_mass: float


def _version_space(instance: MassartInstance, smp: LabeledSample) -> tuple[int, float]:
    """Number of rows agreeing with the target on the sample, and the mass
    of the points where two of those rows differ."""
    agree = instance.cls.patterns[:, smp.xs] == instance.fstar[smp.xs]
    members = instance.cls.patterns[agree.all(axis=1)]
    if not members.shape[0]:
        return 0, 0.0
    dis = members.max(axis=0) != members.min(axis=0)
    return members.shape[0], float(instance.px.weights[dis].sum())


def run_trial(instance: MassartInstance, n: int, policy: ErmPolicy, seed: int) -> TrialReport:
    smp = sample(instance, n, seed)
    risks = empirical_risks(instance.cls, smp)
    chosen = _select(risks, policy, seed)
    size, dis_mass = _version_space(instance, smp)
    return TrialReport(n=n, seed=seed, chosen=chosen,
                       empirical_risk=float(risks[chosen]),
                       excess=excess_risk(instance, chosen),
                       version_space_size=size, dis_mass=dis_mass)


def version_space_disagreement(instance: MassartInstance, n: int, trials: int,
                               seed: int) -> tuple[float, float]:
    """Monte Carlo mean and 99% CI half-width of the disagreement mass of the
    version space after n realizable draws."""
    if not instance.realizable:
        raise ValueError("version-space diagnostics need a realizable instance (h = 1)")
    masses = np.empty(trials)
    for t in range(trials):
        smp = sample(instance, n, seed=int(make_rng(seed, t, 31).integers(2 ** 31)))
        masses[t] = _version_space(instance, smp)[1]
    return mean_ci99(masses)


# ---------------------------------------------------------------------------
# adversarial family and KL accounting


@dataclass(frozen=True)
class AdversarialSpec:
    """A separated family of bounded-noise distributions around a center.

    Each member flips labels toward a binary vector b over the N multiset
    positions: P(Y=1 | x_i) = (1 + (2 b_i - 1) h) / 2.  Members are the
    local packing witnesses, pairwise separated by more than eps/2 in the
    weighted Hamming metric.
    """

    n_positions: int
    h: float
    center_row: int
    multiset: tuple[int, ...]
    support: tuple[int, ...]
    weights: tuple[int, ...]
    rows: tuple[int, ...]          # class rows backing the family vectors
    eps: int
    pseudoconvexity: float
    gamma: int
    instances: tuple[MassartInstance, ...]
    center_in_family: bool
    exact: bool

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def size_with_center(self) -> int:
        return self.size if self.center_in_family else self.size + 1

    def vector(self, i: int) -> np.ndarray:
        """Binary vector over support points for family member i."""
        row = self.instances[i].cls.row(self.rows[i])
        return (row[list(self.support)] > 0).astype(np.int8)

    def rho(self, i: int, j: int) -> int:
        """Weighted Hamming distance between members over the N positions."""
        w = np.asarray(self.weights)
        return int(w[self.vector(i) != self.vector(j)].sum())

    def rho_to_center(self, i: int) -> int:
        w = np.asarray(self.weights)
        center = (self.instances[0].cls.row(self.center_row)[list(self.support)] > 0)
        return int(w[self.vector(i) != center.astype(np.int8)].sum())


def build_adversarial_family(cls: HypothesisClass, h: float, n_budget: int,
                             search: str = "auto", seed: int = 0) -> AdversarialSpec:
    """Separated bounded-noise family realizing the local packing at the
    fixed point, sized by N = ceil(6 n c h / (1-h)) (capped at POSITION_CAP).

    Rejected for h = 1, where the construction degenerates; h must also
    exceed sqrt(d / n_budget).
    """
    if not (0 < h < 1):
        raise ValueError("family construction needs h in (0, 1); h = 1 degenerates")
    d = vc_dimension(cls).value
    if h * h * n_budget <= d:
        raise ValueError(f"need h > sqrt(d/n) = sqrt({d}/{n_budget})")
    n0 = min(int(math.ceil(6.0 * n_budget * 1.0 * h / (1.0 - h))), POSITION_CAP)
    first = pseudoconvexity_constant(cls, h, n0, search=search, seed=seed)
    big_n = min(int(math.ceil(6.0 * n_budget * first.constant * h / (1.0 - h))),
                POSITION_CAP)
    cf = (pseudoconvexity_constant(cls, h, big_n, search=search, seed=seed)
          if big_n != n0 else first)
    row = cf.row
    if row["eps"] is None:
        raise ValueError("local packing degenerated; increase n_budget")

    support, counts = np.unique(np.asarray(row["multiset"]), return_counts=True)
    px_weights = np.zeros(cls.n_points)
    px_weights[support] = counts / counts.sum()
    px = DomainDistribution(px_weights)
    instances = tuple(make_massart_instance(cls, r, h, px=px) for r in row["witness"])
    return AdversarialSpec(
        n_positions=int(counts.sum()), h=h, center_row=row["center_row"],
        multiset=row["multiset"], support=tuple(int(s) for s in support),
        weights=tuple(int(c) for c in counts), rows=row["witness"], eps=row["eps"],
        pseudoconvexity=cf.constant, gamma=cf.gamma, instances=instances,
        center_in_family=row["center_row"] in row["witness"], exact=cf.exact)


@dataclass(frozen=True)
class KLReport:
    closed_form: float
    exact: float
    rho: int

    @property
    def relative_gap(self) -> float:
        scale = max(abs(self.closed_form), abs(self.exact), 1e-300)
        return abs(self.closed_form - self.exact) / scale


def kl_closed_form(rho: int, h: float, big_n: int, n: int) -> float:
    """Product KL between two family members at weighted Hamming distance rho."""
    if not (0 < h < 1):
        raise ValueError("KL is finite only for h in (0, 1)")
    return (n / big_n) * h * math.log((1.0 + h) / (1.0 - h)) * rho


def kl_exact(b1, b2, weights, h: float, big_n: int, n: int) -> float:
    """Joint-law KL of one draw (point marginal shared, labels flipped), times n."""
    if not (0 < h < 1):
        raise ValueError("KL is finite only for h in (0, 1)")
    b1 = np.asarray(b1)
    b2 = np.asarray(b2)
    w = np.asarray(weights, dtype=np.float64)
    p1 = (1.0 + (2.0 * b1 - 1.0) * h) / 2.0
    p2 = (1.0 + (2.0 * b2 - 1.0) * h) / 2.0
    per_point = p1 * np.log(p1 / p2) + (1.0 - p1) * np.log((1.0 - p1) / (1.0 - p2))
    return float(n * (w / w.sum() * per_point).sum())


def kl_product(spec: AdversarialSpec, i: int, j: int, n: int) -> KLReport:
    """Closed-form and brute-force product KL between family members; the two
    routes must agree to 1e-9 relative."""
    v1, v2 = spec.vector(i), spec.vector(j)
    rho = spec.rho(i, j)
    closed = kl_closed_form(rho, spec.h, spec.n_positions, n)
    exact = kl_exact(v1, v2, spec.weights, spec.h, spec.n_positions, n)
    report = KLReport(closed_form=closed, exact=exact, rho=rho)
    if rho > 0 and report.relative_gap > 1e-9:
        raise AssertionError(
            f"KL routes disagree: closed {closed!r} vs exact {exact!r} (rho={rho})")
    return report
