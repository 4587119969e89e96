import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locent.classes import (HypothesisClass, PointDomain,
                            make_massart_instance, make_star_class, sample)
from locent.processes import (LossClassView, _sup_mean, check_contraction,
                              check_localization_bound,
                              check_symmetrization_expectation,
                              offset_rademacher_sup, shifted_process_sup,
                              sudakov_check)
from locent.erm import excess_risk
from locent.util import tlog
from locent.experiments import threshold_instance

import oracles
from conftest import random_class


class TestOffsetRademacher:
    def test_zero_vector(self):
        for c in (0.0, 0.5, 2.0):
            est = offset_rademacher_sup(np.zeros((1, 6)), c)
            assert est.value == 0.0 and est.ci_halfwidth == 0.0

    def test_matches_brute(self, rng):
        # n = 1 leaves the low half of the sign table empty; n = 3 splits it 1 + 2
        for n in (6, 1, 3):
            for _ in range(6):
                v = rng.choice(np.array([-1, 0, 1]), size=(4, n))
                for c in (0.25, 1.0):
                    est = offset_rademacher_sup(v, c)
                    assert est.value == pytest.approx(oracles.brute_offset_sup(v, c))

    def test_finite_set_bound(self, rng):
        # exact enumeration against log(N)/(2 c n) for sign-valued vectors
        for _ in range(8):
            nvec, n = int(rng.integers(2, 9)), int(rng.integers(4, 11))
            v = rng.choice(np.array([-1, 0, 1]), size=(nvec, n))
            for c in (0.25, 1.0, 2.0):
                est = offset_rademacher_sup(v, c)
                assert est.value <= tlog(nvec) / (2 * c * n) + 1e-12

    def test_monotone_in_c(self, rng):
        v = rng.choice(np.array([-1, 0, 1]), size=(5, 8))
        vals = [offset_rademacher_sup(v, c).value for c in (0.0, 0.25, 0.5, 1.0, 2.0)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_mc_agrees_with_exact(self, rng):
        for _ in range(4):
            v = rng.choice(np.array([-1, 0, 1]), size=(5, 10))
            exact = offset_rademacher_sup(v, 0.5)
            mc = offset_rademacher_sup(v, 0.5, mode="monte_carlo", reps=4000, seed=3)
            assert abs(mc.value - exact.value) <= 3 * mc.ci_halfwidth / 2.5758 * 3

    def test_enum_cap(self):
        with pytest.raises(ValueError, match="monte_carlo"):
            offset_rademacher_sup(np.zeros((1, 20)), 1.0)


class TestExactEnumeration:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 300), st.sampled_from([0, 0.25, 1 / 3, 0.5, 1]),
           st.integers(0, 2 ** 32 - 1))
    def test_bit_identical_to_full_sign_matrix(self, n, rows, c, seed):
        v = np.random.default_rng(seed).choice(np.array([-1.0, 0.0, 1.0]), size=(rows, n))
        pen = c * np.abs(v).sum(axis=1)
        mean, sd, exact, terms = _sup_mean(v, pen, True, 0, None)
        assert mean == oracles.ref_exact_sup_mean(v, pen)
        if c != 1 / 3:
            # dyadic penalties keep the float32 mean of the full table exact
            assert mean == oracles.ref_sup_mean(v, pen)
        assert (sd, exact, terms) == (0.0, True, 2 ** n)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 16), st.integers(1, 12), st.integers(1, 24),
           st.sampled_from([0, 0.25, 1 / 3, 0.5, 1]), st.integers(0, 2 ** 32 - 1))
    def test_repeated_columns_and_rows(self, points, n, base_rows, rows, c, seed):
        # a sample drawn with replacement repeats columns; equal rows repeat too
        g = np.random.default_rng(seed)
        base = g.choice(np.array([-1.0, 0.0, 1.0]), size=(base_rows, points))
        v = base[:, g.integers(points, size=n)][g.integers(base_rows, size=rows)]
        pen = c * np.abs(v).sum(axis=1)
        mean, sd, exact, terms = _sup_mean(v, pen, True, 0, None)
        assert mean == oracles.ref_exact_sup_mean(v, pen)
        assert (sd, exact, terms) == (0.0, True, 2 ** n)
        if n <= 10:
            # the oracle keeps c / 3 in float64, the library rounds it to float32
            brute = oracles.brute_offset_sup(v, c)
            assert mean / n == (brute if c != 1 / 3 else pytest.approx(brute, abs=1e-6))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 40), st.floats(2.0 ** -9, 8.0),
           st.integers(0, 2 ** 32 - 1))
    def test_exact_down_to_the_stated_penalty_scale(self, n, rows, c, seed):
        # penalties c m with signed integer m, |m| <= n: the suprema span at
        # most 53 - n bits for c >= 2^-9, so the float64 sum is exact
        v = np.random.default_rng(seed).choice(np.array([-1.0, 0.0, 1.0]), size=(rows, n))
        pen = c * v.sum(axis=1)
        mean = _sup_mean(v, pen, True, 0, None)[0]
        assert mean == oracles.ref_exact_sup_mean(v, pen)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 100), st.integers(0, 2 ** 32 - 1))
    def test_real_values_agree_to_float32_rounding(self, n, rows, seed):
        g = np.random.default_rng(seed)
        v = g.normal(size=(rows, n))
        pen = g.random() * (v ** 2).sum(axis=1)
        mean = _sup_mean(v, pen, True, 0, None)[0]
        assert mean == pytest.approx(oracles.ref_sup_mean(v, pen), rel=1e-6, abs=1e-6)

    def test_memory_bounded_at_the_cap(self, rng):
        v = rng.choice(np.array([-1.0, 0.0, 1.0]), size=(300, 16))
        real = rng.normal(size=(300, 16))
        # all 16 columns distinct, a sample's columns drawn with replacement,
        # then real values with a non-dyadic penalty
        for vals, c in ((v, 0.25), (v[:, rng.integers(16, size=16)], 0.25), (real, 1 / 3)):
            pen = c * (vals ** 2).sum(axis=1)
            tracemalloc.start()
            try:
                terms = _sup_mean(vals, pen, True, 0, None)[3]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2 ** 20
            assert terms == 2 ** 16


class TestLossViews:
    def test_pointwise_identities(self, rng):
        # g^2 = disagreement = |f - f*|/2 = (f - f*)^2/4 and g = y(f* - f)/2
        for _ in range(10):
            cls = random_class(rng)
            target = int(rng.integers(cls.n_rows))
            excess = LossClassView(cls, target, "excess_loss")
            fstar = cls.row(target).astype(float)
            diff = (cls.patterns - fstar)
            xs = np.arange(cls.n_points)
            for y in (1, -1):
                ys = np.full(cls.n_points, y, dtype=np.int8)
                g = excess.values(xs, ys)
                assert np.allclose(g ** 2, np.abs(diff) / 2)
                assert np.allclose(g ** 2, diff ** 2 / 4)
                assert np.allclose(g, y * (fstar - cls.patterns) / 2)

    def test_bernstein_property(self, rng):
        # P g^2 <= (1/h) P g exactly over the finite instance
        for _ in range(20):
            cls = random_class(rng)
            target = int(rng.integers(cls.n_rows))
            h = float(rng.choice([1.0, 0.5, 0.25]))
            inst = make_massart_instance(cls, target, h)
            view = LossClassView(cls, target, "excess_loss")
            pg = view.exact_means(inst)
            pg2 = (cls.patterns != inst.fstar) @ inst.px.weights
            assert np.all(pg2 <= pg / h + 1e-12)


class TestShiftedProcess:
    def test_target_loss_vanishes_realizable(self):
        inst = threshold_instance(8, 1.0)
        view = LossClassView(inst.cls, inst.target, "excess_loss")
        smp = sample(inst, 12, 3)
        vals = view.values(smp.xs, smp.ys)
        target_term = excess_risk(inst, inst.target) - 2.0 * vals[inst.target].mean()
        assert target_term == 0.0

    def test_sup_at_least_zero_with_zero_function(self):
        inst = threshold_instance(8, 0.5)
        view = LossClassView(inst.cls, inst.target, "excess_loss")
        smp = sample(inst, 10, 1)
        assert shifted_process_sup(view, inst, smp, 0.0) >= 0.0

    def test_matches_row_sweep(self, rng):
        for _ in range(6):
            cls = random_class(rng)
            target = int(rng.integers(cls.n_rows))
            inst = make_massart_instance(cls, target, 0.5)
            view = LossClassView(cls, target, "excess_loss")
            smp = sample(inst, 9, int(rng.integers(1000)))
            c = 0.5
            best = max(
                excess_risk(inst, r)
                - (1 + c) * float(view.values(smp.xs, smp.ys)[r].mean())
                for r in range(cls.n_rows))
            assert shifted_process_sup(view, inst, smp, c) == pytest.approx(best)

    def test_unknown_points_rejected(self):
        inst = threshold_instance(4, 1.0)
        view = LossClassView(inst.cls, inst.target, "excess_loss")
        smp = sample(inst, 5, 0)
        object.__setattr__(smp, "xs", np.array([0, 1, 2, 3, 9]))
        with pytest.raises(ValueError, match="unknown"):
            shifted_process_sup(view, inst, smp, 0.0)


class TestInequalityChecks:
    def test_symmetrization_c0(self):
        inst = threshold_instance(10, 0.5)
        view = LossClassView(inst.cls, inst.target, "excess_loss")
        rep = check_symmetrization_expectation(view, inst, 0.0, 10, 150, seed=4)
        assert rep.passed

    def test_symmetrization_c2(self):
        inst = threshold_instance(12, 0.5)
        view = LossClassView(inst.cls, inst.target, "excess_loss")
        rep = check_symmetrization_expectation(view, inst, 2.0, 12, 150, seed=4)
        assert rep.passed

    def test_symmetrization_singleton(self):
        cls = HypothesisClass(PointDomain.of_size(3),
                              np.array([[1, -1, 1]], dtype=np.int8))
        inst = make_massart_instance(cls, 0, 1.0)
        view = LossClassView(cls, 0, "excess_loss")
        rep = check_symmetrization_expectation(view, inst, 0.0, 6, 100, seed=1)
        assert rep.passed and abs(rep.lhs) < 1e-12

    def test_contraction_noisy(self):
        rep = check_contraction(threshold_instance(12, 0.5), 0.25, 12, 150, seed=6)
        assert rep.passed

    def test_contraction_realizable_degenerates(self):
        rep = check_contraction(threshold_instance(10, 1.0), 0.25, 10, 120, seed=6)
        assert rep.passed

    def test_contraction_c0(self):
        rep = check_contraction(threshold_instance(10, 0.5), 0.0, 10, 120, seed=6)
        assert rep.passed

    def test_contraction_needs_100_trials(self):
        with pytest.raises(ValueError, match="at least 100 trials"):
            check_contraction(threshold_instance(10, 0.5), 0.25, 10, 0, seed=6)

    def test_localization_needs_100_trials(self):
        with pytest.raises(ValueError, match="at least 100 trials"):
            check_localization_bound(threshold_instance(10, 0.5), "halved_difference",
                                     0.25, 10, 1, seed=2)

    def test_localization_zero_view(self):
        cls = HypothesisClass(PointDomain.of_size(4),
                              np.array([[1, 1, -1, -1]], dtype=np.int8))
        inst = make_massart_instance(cls, 0, 1.0)
        rep = check_localization_bound(inst, "halved_difference", 0.25, 8, 100, seed=2)
        assert rep.passed and rep.details["ratio"] == pytest.approx(0.0, abs=1e-12)

    def test_localization_thresholds(self):
        rep = check_localization_bound(threshold_instance(16, 0.25), "halved_difference",
                                       0.25, 16, 150, seed=2)
        assert rep.passed

    def test_localization_f1(self):
        inst = make_massart_instance(make_star_class("F1", 2, 8), 0, 0.5)
        rep = check_localization_bound(inst, "disagreement", 0.125, 16, 120, seed=2)
        assert rep.passed


class TestSudakov:
    def test_singleton_ratio_zero(self):
        rep = sudakov_check(np.array([[1.0, -1.0, 1.0]]))
        assert rep.details["ratio"] == 0.0 and rep.lhs == 0.0

    def test_antipodal_exact(self):
        v = np.array([[1.0] * 6, [-1.0] * 6])
        rep = sudakov_check(v)
        # E sup(S, -S) = E|S| for S = sum of 6 signs
        from itertools import product
        exact = np.mean([abs(sum(s)) for s in product((-1, 1), repeat=6)])
        assert rep.lhs == pytest.approx(exact)
        assert rep.details["mode"] == "exact_enumeration"

    def test_orthogonal_rows_ratio_order_one(self):
        rep = sudakov_check(np.eye(8))
        assert 0.0 < rep.details["ratio"] < 10.0
