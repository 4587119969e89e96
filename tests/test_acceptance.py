"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

import json
import math
import time

import numpy as np
import pytest

from locent.classes import (DomainDistribution, circle_separator_class,
                            make_massart_instance, make_star_class,
                            threshold_class, threshold_instance)
from locent.cli import dispatch
from locent.erm import kl_closed_form
from locent.experiments import (SweepConfig, fit_loglog_slope, run_rate_sweep,
                                star_class_separation)
from locent.erm import version_space_disagreement
from locent.doubling import doubling_dimension
from locent.geometry import (gamma_loc, gamma_star, local_packing_number, max_packing,
                             packing_log_vc_bound)
from locent.measures import star_number, vc_dimension
from locent.processes import (LossClassView, check_contraction,
                              check_localization_bound,
                              check_symmetrization_expectation,
                              offset_rademacher_sup)
from locent.util import tlog

import oracles
from conftest import random_class

BASE_SEED = 20240810


def report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_exact_oracle_equivalence():
    """Exact modes match brute-force enumeration on 50 random small classes."""
    t0 = time.time()
    rng = np.random.default_rng(BASE_SEED)
    checked = 0
    for _ in range(50):
        cls = random_class(rng, max_points=8, max_rows=12)
        d = oracles.pairwise_dists(cls.patterns)
        for eps in (0, 1, 2):
            res = max_packing(cls.patterns, eps)
            assert res.mode == "exact"
            assert res.size == oracles.brute_max_packing(d, eps)
        lp = local_packing_number(cls, 1, 2, 1.0, search="exact")
        assert lp.exact
        assert lp.value == oracles.brute_local_packing(cls, 1, 2, 1.0)
        assert vc_dimension(cls).value == oracles.brute_vc(cls)
        assert star_number(cls).value == oracles.brute_star(cls)
        px = DomainDistribution.uniform(cls.n_points)
        dd = doubling_dimension(cls, px, 0.5)
        assert dd.exact
        assert dd.value == pytest.approx(oracles.brute_doubling(cls, px, 0.5))
        checked += 1
    elapsed = time.time() - t0
    report("criterion-01 oracle-equivalence", checked == 50 and elapsed < 60.0,
           f"{checked} classes, 5 measures each, {elapsed:.1f}s (< 60s)")


def test_criterion_02_explicit_entropy_constant():
    """log M_loc <= 2 d log(11 e^2 (n/gamma min s/h)) on every exact scan row."""
    grid = [
        (threshold_class(8), 5),
        (make_star_class("F1", 2, 6), 6),
        (make_star_class("F2", 2, 6), 6),
        (make_star_class("F1", 1, 5), 5),
    ]
    rows_checked = 0
    for cls, n in grid:
        d = vc_dimension(cls)
        s = star_number(cls)
        assert d.exact and s.exact
        for h in (1.0, 0.5):
            fp = gamma_loc(cls, h, h, n, search="exact")
            assert fp.exact, "grid instance must solve exactly"
            for row in fp.scan:
                bound = packing_log_vc_bound(d.value, s.value, n, row["gamma"], h)
                assert row["log_packing"] <= bound, (cls, h, row)
                rows_checked += 1
    report("criterion-02 explicit-entropy-constant", rows_checked > 0,
           f"{rows_checked} exact scan rows, zero violations, zero tolerance")


def test_criterion_03_offset_bound_exact():
    """Exact offset suprema stay below tlog(N)/(2 c n) on 20 random vector sets."""
    rng = np.random.default_rng(BASE_SEED + 3)
    for _ in range(20):
        nvec = int(rng.integers(1, 33))
        n = int(rng.integers(2, 13))
        v = rng.choice(np.array([-1, 0, 1]), size=(nvec, n))
        for c in (0.25, 1.0, 2.0):
            est = offset_rademacher_sup(v, c)
            assert est.exact
            assert est.value <= tlog(nvec) / (2 * c * n), (nvec, n, c, est.value)
    report("criterion-03 offset-bound", True,
           "20 sets x 3 offsets, exact enumeration, zero tolerance")


def test_criterion_04_threshold_fixed_points():
    ns = (64, 128, 256, 512, 1024, 2048, 4096)
    locs, stars = {}, {}
    for n in ns:
        cls = threshold_class(n)
        locs[n] = gamma_loc(cls, 1.0, 1.0, n, search="hill_climb", seed=1).gamma
        stars[n] = gamma_star(cls, 0.5, n, search="hill_climb", seed=1).gamma
    ok_loc = all(v <= 8 for v in locs.values())
    star_ratios = [stars[n] / math.log(n) for n in ns]
    ok_star = max(star_ratios) / min(star_ratios) <= 4.0

    n_h = 256
    cls = threshold_class(n_h)
    hs = (1.0, 0.5, 0.25, 0.125)
    noisy = [gamma_loc(cls, h, h, n_h, search="hill_climb", seed=1).gamma for h in hs]
    ok_mono = all(a < b for a, b in zip(noisy, noisy[1:]))
    refs = [tlog(1.0 / h) / h for h in hs]
    noise_ratios = [g / r for g, r in zip(noisy, refs)]
    ok_noise = max(noise_ratios) / min(noise_ratios) <= 4.0
    report("criterion-04 threshold-fixed-points",
           ok_loc and ok_star and ok_mono and ok_noise,
           f"gamma_loc(1,1)={list(locs.values())} (<=8); "
           f"gamma*/ln(n) bracket {max(star_ratios)/min(star_ratios):.2f} (<=4); "
           f"noisy gammas {noisy} ratio bracket {max(noise_ratios)/min(noise_ratios):.2f} (<=4)")


def test_criterion_05_linear_separators():
    ratios = []
    gammas = []
    for n in (8, 12, 16, 20):
        cls = circle_separator_class(n)
        fp = gamma_loc(cls, 1.0, 1.0, n, search="hill_climb", seed=5)
        gammas.append(fp.gamma)
        ratios.append(fp.gamma / (3.0 * math.log(n / 3.0)))
    bracket = max(ratios) / min(ratios)
    report("criterion-05 separator-fixed-points", bracket <= 4.0,
           f"gammas {gammas}, ratios to 3 ln(n/3) bracket {bracket:.2f} (<= 4)")


def test_criterion_06_invariant_suite():
    rng = np.random.default_rng(BASE_SEED + 6)

    # h * gamma_loc >= 1/2 on a spread of classes and margins
    for _ in range(10):
        cls = random_class(rng, max_points=6, max_rows=8)
        for h in (1.0, 0.5, 0.3, 0.25):
            fp = gamma_loc(cls, h, h, 4, search="exact")
            assert h * fp.gamma >= 0.5 - 1e-12

    # d <= s on every generator
    gens = [threshold_class(12), make_star_class("F1", 2, 6),
            make_star_class("F2", 3, 8), make_star_class("F3", 2, 6, grid=4),
            make_star_class("F1", 1, 5), circle_separator_class(8)]
    for cls in gens:
        assert vc_dimension(cls).value <= star_number(cls).value

    # Bernstein property, exact to 1e-12, on 100 random (instance, row) pairs
    pairs = 0
    while pairs < 100:
        cls = random_class(rng, max_points=7, max_rows=10)
        h = float(rng.choice([1.0, 0.5, 0.25]))
        inst = make_massart_instance(cls, int(rng.integers(cls.n_rows)), h)
        row = int(rng.integers(cls.n_rows))
        pg2 = float((cls.patterns[row] != inst.fstar) @ inst.px.weights)
        pg = float(((cls.patterns[row] != inst.fstar)
                    * inst.px.weights * inst.abs_eta).sum())
        assert pg2 <= pg / h + 1e-12
        pairs += 1

    # pointwise loss identities, exact
    for _ in range(10):
        cls = random_class(rng)
        target = int(rng.integers(cls.n_rows))
        view = LossClassView(cls, target, "excess_loss")
        fstar = cls.row(target).astype(float)
        xs = np.arange(cls.n_points)
        for y in (1, -1):
            g = view.values(xs, np.full(cls.n_points, y, dtype=np.int8))
            assert np.array_equal(g ** 2, (cls.patterns != fstar).astype(float))
            assert np.array_equal(g ** 2, np.abs(cls.patterns - fstar) / 2)
            assert np.array_equal(g ** 2, (cls.patterns - fstar) ** 2 / 4)
            assert np.array_equal(g, y * (fstar - cls.patterns) / 2)

    # local entropy vs doubling dimension on exact-mode points
    points = 0
    for _ in range(12):
        cls = random_class(rng, max_points=6, max_rows=10)
        n = cls.n_points
        for gamma in (1, 2):
            lp = local_packing_number(cls, gamma, 2, 1.0, search="exact")
            if not lp.exact or lp.multiset is None:
                continue
            counts = np.bincount(np.asarray(lp.multiset), minlength=n)
            px = DomainDistribution.from_counts(counts)
            dd = doubling_dimension(cls, px, gamma / 2)
            assert dd.exact
            assert tlog(lp.value) <= 2.0 * dd.value + 1e-9
            points += 1
    assert points >= 12
    report("criterion-06 invariant-suite", True,
           f"fixed-point floors, d<=s, 100 Bernstein pairs (1e-12), "
           f"loss identities, {points} doubling comparisons")


def test_criterion_07_kl_closed_form():
    rng = np.random.default_rng(BASE_SEED + 7)
    worst = 0.0
    for k in range(50):
        size = int(rng.integers(1, 9))
        b1 = rng.integers(0, 2, size)
        b2 = rng.integers(0, 2, size)
        w = rng.integers(1, 5, size)
        h = (0.1, 0.5, 0.9)[k % 3]
        n = int(rng.integers(1, 100))
        big_n = int(w.sum())
        rho = int(w[b1 != b2].sum())
        closed = kl_closed_form(rho, h, big_n, n)
        brute = oracles.brute_kl_joint(b1, b2, w, h, big_n, n)
        gap = abs(closed - brute) / max(abs(closed), abs(brute), 1e-300)
        if rho == 0:
            gap = abs(closed - brute)
        worst = max(worst, gap)
        assert gap <= 1e-9, (b1, b2, w, h, n, closed, brute)
    report("criterion-07 kl-closed-form", True,
           f"50 tuples incl h in {{0.1,0.5,0.9}}, worst relative gap {worst:.2e} (<= 1e-9)")


def test_criterion_08_version_space_bound():
    t0 = time.time()
    trials = 10_000
    details = []
    inst_th = threshold_instance(32, 1.0, target=16)
    for n in (8, 16, 32):
        mean, ci = version_space_disagreement(inst_th, n, trials, seed=BASE_SEED)
        se = ci / 2.5758293035489004
        bound = 2.0 / (n + 1) + 3.0 * se
        assert mean <= bound, (n, mean, bound)
        details.append(f"thr n={n}: {mean:.4f} <= {bound:.4f}")
    f1 = make_star_class("F1", 1, 8)
    inst_f1 = make_massart_instance(f1, 0, 1.0)
    for n in (8, 16, 32):
        mean, ci = version_space_disagreement(inst_f1, n, trials, seed=BASE_SEED)
        se = ci / 2.5758293035489004
        bound = 8.0 / (n + 1) + 3.0 * se
        assert mean <= bound, (n, mean, bound)
        details.append(f"f1 n={n}: {mean:.4f} <= {bound:.4f}")
    elapsed = time.time() - t0
    report("criterion-08 version-space-bound", elapsed < 120.0,
           "; ".join(details) + f"; {elapsed:.0f}s (< 120s)")


def test_criterion_09_erm_rate_shape():
    cfg = SweepConfig(instance_factory=lambda h, n: threshold_instance(n, h),
                      h_grid=(1.0, 0.5), n_grid=(32, 64, 128, 256, 512),
                      trials=2000, policy="first_index", seed=BASE_SEED,
                      search="hill_climb")
    table = run_rate_sweep(cfg)
    details = []
    for h in cfg.h_grid:
        consts = [r["mean_excess"] * r["n"] / r["gamma_loc"]
                  for r in table.rows if r["h"] == h]
        spread = max(consts) / min(consts)
        assert spread <= 4.0, (h, consts)
        details.append(f"h={h}: constant spread {spread:.2f} (<= 4)")
    realizable = [(r["n"], r["mean_excess"]) for r in table.rows if r["h"] == 1.0]
    slope, _ = fit_loglog_slope([n for n, _ in realizable], [v for _, v in realizable])
    assert abs(slope + 1.0) <= 0.15, slope
    details.append(f"realizable slope {slope:.3f} (-1 +- 0.15)")
    report("criterion-09 erm-rate-shape", True, "; ".join(details))


def test_criterion_10_star_class_separation():
    out = star_class_separation(2, 64, 64, 2000, seed=BASE_SEED)
    ratio = out["ratio"]
    report("criterion-10 wide/narrow-separation", ratio >= 1.5,
           f"pessimistic mean risks {out['wide']['mean']:.5f} / "
           f"{out['narrow']['mean']:.5f}, ratio {ratio:.3f} (>= 1.5)")


def _lemma_battery(seed):
    inst_half = threshold_instance(12, 0.5)
    view = LossClassView(inst_half.cls, inst_half.target, "excess_loss")
    checks = [
        check_symmetrization_expectation(view, inst_half, 0.0, 12, 250, seed),
        check_symmetrization_expectation(view, inst_half, 2.0, 12, 250, seed),
        check_contraction(inst_half, 0.25, 12, 250, seed),
        check_contraction(threshold_instance(10, 1.0), 0.25, 10, 150, seed),
        check_localization_bound(threshold_instance(16, 0.25), "halved_difference",
                                 0.25, 16, 200, seed),
        check_localization_bound(make_massart_instance(make_star_class("F1", 2, 8), 0, 0.5),
                                 "disagreement", 0.125, 16, 150, seed),
    ]
    return checks


def test_criterion_11_lemma_checks():
    base = _lemma_battery(BASE_SEED)
    assert all(r.passed for r in base), [r.name for r in base if not r.passed]
    failures = 0
    for alt in range(1, 6):
        for r in _lemma_battery(BASE_SEED + alt):
            if not r.passed:
                failures += 1
    report("criterion-11 lemma-checks", failures <= 1,
           f"base seed all 6 pass at 3-sigma; {failures} marginal failures "
           f"over 5 alternate seeds (<= 1)")


def test_criterion_12_replay_determinism(tmp_path):
    jobs = [
        (["measures", "--generator", "thresholds", "--points", "16"], "m.json"),
        (["fixed-point", "--generator", "thresholds", "--points", "16",
          "--kind", "loc", "--h", "1.0", "--n", "16", "--seed", "7",
          "--format", "csv"], "fp.csv"),
        (["erm-run", "--generator", "f1", "--d", "2", "--s", "6", "--h", "0.5",
          "--n", "12", "--trials", "25", "--seed", "3"], "run.csv"),
        (["erm-sweep", "--generator", "thresholds", "--h-grid", "1.0,0.5",
          "--n-grid", "8,16", "--trials", "30", "--seed", "2"], "sweep.csv"),
    ]
    for argv, name in jobs:
        first = tmp_path / name
        second = tmp_path / f"re_{name}"
        assert dispatch(argv + ["--out", str(first)]) == 0
        assert dispatch(["replay", str(first), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
    report("criterion-12 replay-determinism", True,
           "measures/fixed-point/erm-run/erm-sweep artifacts byte-identical on replay")
