"""Empirical risk minimization with explicit tie-breaking, exact excess risk,
version-space diagnostics, and the bounded-noise adversarial family with
exact KL accounting."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .classes import (DomainDistribution, HypothesisClass, LabeledSample,
                      MassartInstance, draw_samples, make_massart_instance)
from .util import mean_ci99

# the functions that run trials import seeding themselves: lower-bound-family
# loads erm but runs no trial, so it skips compiling the stream hash

__all__ = [
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


# the tie-breaking rules among empirical risk minimizers, described at _run_trials
_POLICIES = ("first_index", "seeded_random", "pessimistic")


def empirical_risks(cls: HypothesisClass, smp: LabeledSample) -> np.ndarray:
    """Per-row empirical 0-1 risk, via a label-weighted point histogram."""
    if int(smp.xs.max()) >= cls.n_points:
        raise ValueError("sample references unknown domain points")
    return _risks(cls.patterns.T.astype(np.float64), smp.xs[None], smp.ys[None])[0]


def _risks(scores_t: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(trials, rows) empirical risks of the (trials, n) samples xs, ys.

    scores_t is patterns.T as float64.  One bincount over t * points + x
    builds every trial's label-weighted histogram; the histograms and the
    scores are integer-valued float64, so each entry has the bits of the
    one-sample product."""
    trials, n = xs.shape
    points = scores_t.shape[0]
    cells = (np.arange(trials)[:, None] * points + xs).ravel()
    hist = np.bincount(cells, weights=ys.ravel().astype(np.float64),
                       minlength=trials * points)
    return (n - _matmul(hist.reshape(trials, points), scores_t)) / (2.0 * n)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b by einsum, which skips the BLAS gemm workspace that a first
    matrix-matrix product touches (about half a MB of peak RSS per process);
    the trial engine's products have integer values, exact in any order."""
    return np.einsum("ij,jk->ik", a, b)


def excess_risk(instance: MassartInstance, row: int) -> float:
    """Exact excess risk sum_x px(x) |eta(x)| 1[f(x) != target(x)]."""
    dis = instance.cls.row(row) != instance.fstar
    return float((instance.px.weights * instance.abs_eta)[dis].sum())


def excess_risk_all(instance: MassartInstance) -> np.ndarray:
    dis = instance.cls.patterns != instance.fstar
    return dis @ (instance.px.weights * instance.abs_eta)


def erm(cls: HypothesisClass, smp: LabeledSample, policy: str, seed: int = 0,
        instance: MassartInstance | None = None) -> int:
    """A row minimizing empirical risk, ties broken per policy as _run_trials
    breaks them; only "pessimistic" reads instance, the true instance on cls."""
    if policy == "pessimistic" and instance is None:
        raise ValueError("pessimistic tie-breaking needs the true instance")
    if instance is not None and instance.cls is not cls and not instance.cls.equals(cls):
        raise ValueError("instance class does not match cls")
    return int(_choose(empirical_risks(cls, smp)[None], policy,
                       _pessimism(policy, instance), _tie_draws(policy, [seed]))[0])


def _pessimism(policy: str | None, instance: MassartInstance) -> np.ndarray | None:
    """excess_risk_all(instance), which the pessimistic policy reads; None for
    the other policies and for none.  An unknown policy name raises."""
    if policy is not None and policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    return excess_risk_all(instance) if policy == "pessimistic" else None


def _tie_draws(policy: str, seeds) -> np.ndarray | None:
    """Draw 0 of the stream of (seed, (21,)) per trial seed, as a uniform,
    which breaks the seeded_random policy's ties; None for the other
    policies."""
    if policy != "seeded_random":
        return None
    from .seeding import bases, uniforms
    return uniforms(bases((seed, (21,)) for seed in seeds), 0, 1)[:, 0]


def _choose(risks: np.ndarray, policy: str, exc_all, draws) -> np.ndarray:
    """Chosen row per trial among the (trials, rows) risks; exc_all is the
    pessimistic policy's excess_risk_all, draws the seeded_random policy's
    _tie_draws."""
    tie = risks <= risks.min(axis=1, keepdims=True) + 1e-12
    if policy == "pessimistic":
        # argmax takes the first maximum, so a tie in excess resolves to the
        # lowest index, as ties[np.argmax(exc[ties])] does
        return np.argmax(np.where(tie, exc_all, -np.inf), axis=1)
    if policy != "seeded_random":
        return np.argmax(tie, axis=1)
    # the k-th tied row (from 0), k = floor(u * count) for the trial's draw u
    k = (draws * np.count_nonzero(tie, axis=1)).astype(np.int64)
    return np.argmax(np.cumsum(tie, axis=1) > k[:, None], axis=1)


class TrialReport(NamedTuple):
    n: int
    seed: int
    chosen: int
    empirical_risk: float
    excess: float
    version_space_size: int
    dis_mass: float


# Most elements (rows + points + n per trial) one block of the trial engine
# spans, so its working arrays stay within a few hundred kB at any trial
# count; a trial larger than this runs as a block of its own.
_BLOCK_ELEMENTS = 1 << 13


class _Trials(NamedTuple):
    """Per-trial results of the trial engine (dis_mass as a list of floats);
    a part not asked for is None."""

    chosen: np.ndarray | None
    empirical_risk: np.ndarray | None
    version_space_size: np.ndarray | None
    dis_mass: list | None


def _run_trials(instance: MassartInstance, n: int, seeds, policy: str | None = None,
                version_space: bool = False) -> _Trials:
    """One trial per seed, in blocks: the sample drawn as sample(instance, n,
    seed) draws it, the ERM choice under policy (skipped for None) and, if
    version_space, the number of rows agreeing with the target on the
    sample and the mass of the points where two of those rows differ.

    The policy breaks ties among the empirical risk minimizers:
    first_index takes the lowest row index; seeded_random a uniform one,
    driven by the trial seed; pessimistic the one of largest true excess
    risk over instance, an evaluation-only rule that measures how bad a
    worst-case choice of minimizer can be."""
    if len(seeds) < 1:
        raise ValueError("trials must be >= 1")
    exc_all = _pessimism(policy, instance)
    cls = instance.cls
    scores_t = cls.patterns.T.astype(np.float64)
    if version_space:
        off_target = (cls.patterns != instance.fstar).T.astype(np.float32)
        positive = (cls.patterns > 0).astype(np.float32)
    from .seeding import bases
    streams = bases((seed, ()) for seed in seeds)  # 8 bytes a trial
    draws = _tie_draws(policy, seeds)
    block = max(1, _BLOCK_ELEMENTS // (cls.n_rows + cls.n_points + n))
    chosen, risk, size, dis_mass = [], [], [], []
    for start in range(0, len(seeds), block):
        xs, ys = draw_samples(instance, n, streams[start:start + block])
        idx = np.arange(len(xs))
        if policy is not None:
            risks = _risks(scores_t, xs, ys)
            pick = _choose(risks, policy, exc_all,
                           None if draws is None else draws[start:start + block])
            chosen.append(pick)
            risk.append(risks[idx, pick])
        if version_space:
            hit = np.zeros((len(xs), cls.n_points), dtype=np.float32)
            hit[idx[:, None], xs] = 1.0
            # products of 0/1 float32 entries count below 2**24: exact
            member = _matmul(hit, off_target) == 0
            count = np.count_nonzero(member, axis=1)
            plus = _matmul(member.astype(np.float32), positive)
            size.append(count)
            # a masked sum per trial, not a dot product, keeps the summation
            # order, hence the bits, of weights[dis].sum()
            dis_mass.extend(float(instance.px.weights[dis].sum())
                            for dis in (plus > 0) & (plus < count[:, None]))
    return _Trials(np.concatenate(chosen) if chosen else None,
                   np.concatenate(risk) if risk else None,
                   np.concatenate(size) if size else None,
                   dis_mass if version_space else None)


def run_trial(instance: MassartInstance, n: int, policy: str, seed: int) -> TrialReport:
    res = _run_trials(instance, n, [seed], policy, version_space=True)
    chosen = int(res.chosen[0])
    return TrialReport(n=n, seed=seed, chosen=chosen,
                       empirical_risk=float(res.empirical_risk[0]),
                       excess=excess_risk(instance, chosen),
                       version_space_size=int(res.version_space_size[0]),
                       dis_mass=res.dis_mass[0])


def version_space_disagreement(instance: MassartInstance, n: int, trials: int,
                               seed: int) -> tuple[float, float]:
    """Monte Carlo mean and 99% CI half-width of the disagreement mass of the
    version space after n realizable draws."""
    from .seeding import spawn_seeds
    if not instance.realizable:
        raise ValueError("version-space diagnostics need a realizable instance (h = 1)")
    seeds = spawn_seeds((seed, (t, 31)) for t in range(trials))
    return mean_ci99(np.array(_run_trials(instance, n, seeds, version_space=True).dis_mass))


# ---------------------------------------------------------------------------
# adversarial family and KL accounting


class AdversarialSpec(NamedTuple):
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
    from .geometry import pseudoconvexity_constant  # only this function needs these two
    from .measures import vc_dimension
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


class KLReport(NamedTuple):
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


def kl_exact(b1, b2, weights, h: float, n: int) -> float:
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
    exact = kl_exact(v1, v2, spec.weights, spec.h, n)
    report = KLReport(closed_form=closed, exact=exact, rho=rho)
    if rho > 0 and report.relative_gap > 1e-9:
        raise AssertionError(
            f"KL routes disagree: closed {closed!r} vs exact {exact!r} (rho={rho})")
    return report
