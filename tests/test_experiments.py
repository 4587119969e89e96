import math
from unittest import mock

import numpy as np
import pytest

from locent.classes import (HypothesisClass, PointDomain, circle_domain,
                            make_massart_instance, make_star_class,
                            threshold_class, threshold_instance)
from locent.erm import build_adversarial_family, excess_risk_all
from locent.experiments import (SweepConfig, check_sandwich, check_star_theorem,
                                fit_loglog_slope, lower_bound_report,
                                run_rate_sweep, star_class_separation)
from locent.util import mean_ci99

import oracles
from oracles import make_rng


class TestFitLoglogSlope:
    def test_pure_inverse(self):
        ns = [32, 64, 128, 256, 512]
        slope, se = fit_loglog_slope(ns, [3.0 / n for n in ns])
        assert slope == pytest.approx(-1.0, abs=1e-9)

    def test_log_over_n(self):
        ns = [64, 128, 256, 512, 1024, 2048, 4096]
        slope, _ = fit_loglog_slope(ns, [5.0 * math.log(n) / n for n in ns])
        assert -1.0 < slope < -0.8

    def test_constant(self):
        slope, _ = fit_loglog_slope([8, 16, 32, 64], [2.0] * 4)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="positive"):
            fit_loglog_slope([1, 2, 3, 4], [1.0, -1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="4 points"):
            fit_loglog_slope([1, 2, 3], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="two distinct n"):
            fit_loglog_slope([2, 2, 2, 2], [1.0, 2.0, 3.0, 4.0])


class TestRateSweep:
    def test_singleton_class_zero_risk(self):
        cls = HypothesisClass(PointDomain.of_size(4),
                              np.array([[1, -1, 1, -1]], dtype=np.int8))
        cfg = SweepConfig(instance_factory=lambda h, n: make_massart_instance(cls, 0, h),
                          h_grid=(1.0,), n_grid=(8, 16), trials=50, seed=1)
        table = run_rate_sweep(cfg)
        assert all(r["mean_excess"] == 0.0 for r in table.rows)

    def test_deterministic_replay(self):
        cfg = SweepConfig(instance_factory=lambda h, n: threshold_instance(n, h),
                          h_grid=(1.0,), n_grid=(16, 32), trials=60, seed=7)
        a = run_rate_sweep(cfg)
        b = run_rate_sweep(cfg)
        assert a.rows == b.rows
        assert a.to_csv_lines() == b.to_csv_lines()

    @pytest.mark.parametrize("policy", ["first_index", "seeded_random", "pessimistic"])
    def test_rows_match_per_trial_oracle(self, policy):
        cfg = SweepConfig(instance_factory=lambda h, n: threshold_instance(n, h),
                          h_grid=(1.0, 0.5), n_grid=(8, 16), trials=30, policy=policy,
                          seed=4)
        rows = {(r["h"], r["n"]): r for r in run_rate_sweep(cfg).rows}
        for hi, h in enumerate(cfg.h_grid):
            for ni, n in enumerate(cfg.n_grid):
                inst = threshold_instance(n, h)
                exc_all = excess_risk_all(inst)
                out = np.array([exc_all[oracles.ref_run_trial(
                    inst, n, policy, int(make_rng(4, hi, ni, t).integers(2 ** 31))).chosen]
                    for t in range(30)])
                assert (rows[h, n]["mean_excess"], rows[h, n]["ci"]) == mean_ci99(out)

    def test_csv_header(self):
        cfg = SweepConfig(instance_factory=lambda h, n: threshold_instance(n, h),
                          h_grid=(1.0,), n_grid=(8,), trials=10, seed=0)
        lines = run_rate_sweep(cfg).to_csv_lines()
        assert lines[0] == "h,n,trials,mean_excess,ci,gamma_loc,gamma_star,ratio,d,s,exact_flags"


class TestSandwich:
    def test_thresholds_explicit_bound_holds(self):
        rep = check_sandwich(threshold_class(32), 1.0, 32, seed=1)
        assert rep.explicit_ok
        assert rep.details["d"] == 1 and rep.details["s"] == 2
        assert rep.ratio_upper <= 4.0

    def test_f1_exact(self):
        rep = check_sandwich(make_star_class("F1", 2, 6), 0.5, 6, seed=1)
        assert rep.explicit_ok and not rep.soft


class TestStarTheorem:
    def test_singleton_class(self):
        cls = HypothesisClass(PointDomain.of_size(4),
                              np.array([[-1, -1, -1, -1]], dtype=np.int8))
        rep = check_star_theorem(cls, 16, 100, seed=2)
        assert rep.mean_risk == 0.0 and rep.mean_risk <= rep.bound

    def test_narrow_class_has_smaller_bound(self):
        wide = check_star_theorem(make_star_class("F1", 2, 16), 32, 50, seed=2)
        narrow = check_star_theorem(make_star_class("F2", 2, 16), 32, 50, seed=2)
        assert narrow.bound < wide.bound
        assert wide.s == narrow.s == 16

    @pytest.mark.parametrize("n, trials, message", [
        (0, 10, "sample size must be >= 1"),
        (-3, 10, "sample size must be >= 1"),
        (8, 0, "trials must be >= 1"),
    ], ids=["n-zero", "n-negative", "trials-zero"])
    def test_rejects_sizes_before_the_searches(self, n, trials, message):
        with mock.patch("locent.experiments.star_number",
                        side_effect=AssertionError("searched")), \
                pytest.raises(ValueError, match=message):
            check_star_theorem(make_star_class("F1", 2, 6), n, trials, seed=0)

    def test_mean_below_constant_times_bound(self):
        rep = check_star_theorem(make_star_class("F1", 2, 16), 64, 300, seed=2)
        assert rep.mean_risk <= 4.0 * rep.bound


class TestSeparation:
    def test_wide_class_suffers_more(self):
        out = star_class_separation(2, 16, 16, 400, seed=3)
        assert out["ratio"] > 1.0

    def test_ratio_grows_with_star_number(self):
        # matched n: the wide/narrow gap widens as the flippable set grows
        r16 = star_class_separation(2, 16, 64, 800, seed=5)["ratio"]
        r64 = star_class_separation(2, 64, 64, 800, seed=5)["ratio"]
        assert r16 < r64


class TestLowerBoundReport:
    def test_reports_fields(self):
        spec = build_adversarial_family(make_star_class("F1", 2, 6), 0.5, 24, seed=3)
        rep = lower_bound_report(spec, 24, trials=40, seed=3)
        assert rep["family_size"] >= 2
        assert rep["worst_mean_excess"] >= 0.0
        assert rep["reference_level"] > 0.0

    def test_report_frozen_and_fixed_points_solved_once(self, monkeypatch):
        # the family is built at N = 144 and then N = 512, one gamma_loc
        # each, and read off the scan row at the fixed point with no second
        # multiset search; frozen from that build
        from locent import geometry
        calls, local = [], []
        solve, pack = geometry.gamma_loc, geometry.local_packing_number
        monkeypatch.setattr(geometry, "gamma_loc",
                            lambda *a, **k: calls.append(a[3]) or solve(*a, **k))
        monkeypatch.setattr(geometry, "local_packing_number",
                            lambda *a, **k: local.append(a[2]) or pack(*a, **k))
        spec = build_adversarial_family(make_star_class("F1", 2, 6), 0.5, 24, seed=1)
        rep = lower_bound_report(spec, 24, trials=20, seed=1)
        assert calls == [144, 512]
        assert local == []
        assert rep == {"family_size": 16, "family_size_with_center": 16, "eps": 195,
                       "gamma": 5, "n_positions": 512, "pseudoconvexity": 39.0,
                       "worst_member": 10, "worst_mean_excess": 0.08330078125,
                       "reference_level": 0.002670940170940171,
                       "implied_constant": 31.1878125, "exact": False}


class TestCircleDomain:
    def test_convex_position(self):
        for n in (4, 8, 13):
            dom = circle_domain(n)
            assert dom.size == n and dom.dim == 2
