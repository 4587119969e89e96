import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locent.classes import (DomainDistribution, HypothesisClass, LabeledSample,
                            PointDomain, make_massart_instance, make_star_class,
                            sample, threshold_class, threshold_instance)
from locent.erm import (build_adversarial_family, empirical_risks, erm,
                        excess_risk, excess_risk_all, kl_closed_form,
                        kl_exact, kl_product, run_trial,
                        version_space_disagreement)
from locent.geometry import local_packing_number

import oracles
from conftest import random_class


class TestErm:
    def test_realizable_zero_risk(self):
        inst = threshold_instance(12, 1.0)
        for seed in range(5):
            smp = sample(inst, 30, seed)
            row = erm(inst.cls, smp, "first_index")
            assert empirical_risks(inst.cls, smp)[row] == 0.0

    def test_two_row_majority(self):
        cls = HypothesisClass(PointDomain.of_size(4),
                              np.array([[1, 1, 1, 1], [-1, -1, -1, -1]], dtype=np.int8))
        smp = LabeledSample(xs=np.array([0, 1, 2, 3]),
                            ys=np.array([1, 1, 1, -1], dtype=np.int8), seed=0)
        assert erm(cls, smp, "first_index") == 0

    def test_sample_past_the_domain_rejected(self):
        cls, smp = threshold_class(8), LabeledSample([0, 9], [1, 1], 0)
        for call in (lambda: empirical_risks(cls, smp), lambda: erm(cls, smp, "first_index")):
            with pytest.raises(ValueError, match="sample references unknown domain points"):
                call()

    def test_pessimistic_tie_break(self):
        # rows 1 and 2 tie empirically on a sample seeing only point 0;
        # row 2 differs from the target on two points, so it is worse
        cls = HypothesisClass(PointDomain.of_size(3),
                              np.array([[1, 1, 1], [1, -1, 1], [1, -1, -1]],
                                       dtype=np.int8))
        inst = make_massart_instance(cls, 0, 1.0)
        smp = LabeledSample(xs=np.array([0, 0]), ys=np.array([1, 1], dtype=np.int8),
                            seed=0)
        assert erm(cls, smp, "pessimistic", instance=inst) == 2
        assert erm(cls, smp, "first_index") == 0

    def test_seeded_random_is_deterministic(self):
        cls = threshold_class(6)
        inst = make_massart_instance(cls, 3, 1.0)
        smp = sample(inst, 3, 5)
        picks = {erm(cls, smp, "seeded_random", seed=42) for _ in range(5)}
        assert len(picks) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 41))
    def test_tie_index_draws_what_choice_draws(self, seed, k):
        # the seeded_random tie-break indexes the tied rows by rng.integers(k)
        # and leaves the generator where rng.choice(rows) leaves it
        rows = np.arange(k) * 3 + 1
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (rows[a.integers(k)], a.random()) == (b.choice(rows), b.random())

    def test_chosen_attains_min_risk(self, rng):
        for _ in range(15):
            cls = random_class(rng)
            inst = make_massart_instance(cls, int(rng.integers(cls.n_rows)), 0.5)
            smp = sample(inst, 8, int(rng.integers(10_000)))
            risks = empirical_risks(cls, smp)
            for kind in ("first_index", "seeded_random", "pessimistic"):
                chosen = erm(cls, smp, kind, seed=3, instance=inst)
                assert risks[chosen] == pytest.approx(risks.min())


class TestExcessRisk:
    def test_target_zero(self):
        inst = threshold_instance(8, 0.5)
        assert excess_risk(inst, inst.target) == 0.0

    def test_uniform_margin_single_diff(self):
        # uniform on 4 points, |eta| = 1/2, one disagreement: (1/4)(1/2)
        cls = threshold_class(4)
        inst = make_massart_instance(cls, 2, 0.5)
        row = 1  # differs from row 2 at exactly one point
        assert int((cls.row(row) != cls.row(2)).sum()) == 1
        assert excess_risk(inst, row) == pytest.approx(1 / 8)

    def test_matches_joint_law_oracle(self, rng):
        for _ in range(15):
            cls = random_class(rng)
            target = int(rng.integers(cls.n_rows))
            h = float(rng.choice([0.25, 0.5, 1.0]))
            inst = make_massart_instance(cls, target, h)
            for row in range(cls.n_rows):
                assert excess_risk(inst, row) == pytest.approx(
                    oracles.brute_excess_risk(inst, row), abs=1e-12)

    def test_margin_lower_bound_tight_for_uniform_margin(self, rng):
        # excess = h * P_X(f != target) exactly under the uniform profile
        for _ in range(10):
            cls = random_class(rng)
            target = int(rng.integers(cls.n_rows))
            inst = make_massart_instance(cls, target, 0.5)
            exc = excess_risk_all(inst)
            mass = (cls.patterns != inst.fstar) @ inst.px.weights
            assert np.allclose(exc, 0.5 * mass)


class TestVersionSpace:
    def test_singleton_class_no_disagreement(self):
        cls = HypothesisClass(PointDomain.of_size(3),
                              np.array([[1, -1, 1]], dtype=np.int8))
        inst = make_massart_instance(cls, 0, 1.0)
        mean, ci = version_space_disagreement(inst, 4, 50, seed=0)
        assert mean == 0.0

    def test_noisy_instance_rejected(self):
        with pytest.raises(ValueError, match="realizable"):
            version_space_disagreement(threshold_instance(8, 0.5), 4, 10, seed=0)

    def test_thresholds_bound(self):
        inst = threshold_instance(16, 1.0)
        mean, ci = version_space_disagreement(inst, 16, 800, seed=3)
        assert mean <= 2 / 17 + 3 * ci / 2.5758

    def test_trial_report_consistency(self):
        inst = threshold_instance(8, 1.0)
        rep = run_trial(inst, 12, "first_index", seed=4)
        assert rep.excess >= 0.0
        assert rep.version_space_size >= 1
        assert 0.0 <= rep.dis_mass <= 1.0

    def test_trial_picks_what_erm_picks(self, rng):
        # run_trial shares erm's tie-breaking on one computation of the risks
        for _ in range(10):
            cls = random_class(rng)
            inst = make_massart_instance(cls, int(rng.integers(cls.n_rows)), 0.5)
            seed = int(rng.integers(10_000))
            smp = sample(inst, 8, seed)
            for kind in ("first_index", "seeded_random", "pessimistic"):
                rep = run_trial(inst, 8, kind, seed)
                assert rep.chosen == erm(cls, smp, kind, seed=seed, instance=inst)
                assert rep.empirical_risk == empirical_risks(cls, smp)[rep.chosen]

    def test_realizable_excess_dominated_by_dis_mass(self):
        # chosen minimizer and target both sit in the version space when
        # h = 1, so the excess risk is at most the disagreement mass
        inst = threshold_instance(16, 1.0)
        for seed in range(20):
            rep = run_trial(inst, 10, "pessimistic", seed=seed)
            assert rep.excess <= rep.dis_mass + 1e-12


erm_module = importlib.import_module("locent.erm")  # locent.erm is the function
POLICIES = ("first_index", "seeded_random", "pessimistic")


class TestTrialEngine:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(POLICIES),
           h=st.sampled_from([0.25, 0.5, 1.0]), n=st.integers(1, 12),
           block=st.integers(2, 4), count=st.sampled_from(["1", "block-1", "block",
                                                          "block+1"]),
           uniform=st.booleans())
    def test_matches_per_trial_oracle(self, seed, kind, h, n, block, count, uniform):
        # uniform marginals give rows of equal excess, so pessimistic ties
        # reach the lowest-index rule; point counts past 8 give masked sums
        # whose order differs from a dot product's
        rng = np.random.default_rng(seed)
        cls = random_class(rng, max_points=24, max_rows=16)
        px = DomainDistribution.from_counts(
            np.ones(cls.n_points) if uniform else rng.integers(1, 8, cls.n_points))
        inst = make_massart_instance(cls, int(rng.integers(cls.n_rows)), h, px=px)
        trials = {"1": 1, "block-1": block - 1, "block": block, "block+1": block + 1}[count]
        seeds = [int(s) for s in rng.integers(2 ** 31, size=trials)]
        budget = block * (cls.n_rows + cls.n_points + n)  # blocks of `block` trials
        with mock.patch.object(erm_module, "_BLOCK_ELEMENTS", budget):
            res = erm_module._run_trials(inst, n, seeds, kind, version_space=True)
        refs = [oracles.ref_run_trial(inst, n, kind, s) for s in seeds]
        assert res.chosen.tolist() == [r.chosen for r in refs]
        assert res.empirical_risk.tobytes() == np.array(
            [r.empirical_risk for r in refs]).tobytes()
        assert res.version_space_size.tolist() == [r.version_space_size for r in refs]
        assert np.array(res.dis_mass).tobytes() == np.array(
            [r.dis_mass for r in refs]).tobytes()
        # the one-trial entry points are one-row calls of the same code
        assert run_trial(inst, n, kind, seeds[0]) == refs[0]
        assert erm(cls, sample(inst, n, seeds[0]), kind, seed=seeds[0],
                   instance=inst) == refs[0].chosen

    def test_unknown_policy_raises_before_drawing(self):
        inst = threshold_instance(8, 0.5)
        with mock.patch.object(erm_module, "draw_samples",
                               side_effect=AssertionError("drew a sample")), \
                pytest.raises(ValueError, match="unknown policy 'bogus'"):
            erm_module._run_trials(inst, 4, [1, 2], "bogus")
        with pytest.raises(ValueError, match="unknown policy 'bogus'"):
            erm(inst.cls, sample(inst, 4, 0), "bogus")

    def test_pessimistic_erm_needs_the_instance_of_its_class(self):
        inst = threshold_instance(8, 0.5)
        smp = sample(inst, 4, 0)
        with pytest.raises(ValueError, match="needs the true instance"):
            erm(inst.cls, smp, "pessimistic")
        other = make_massart_instance(
            HypothesisClass(inst.cls.domain, inst.cls.patterns[1:]), 3, 0.5)
        with pytest.raises(ValueError, match="instance class does not match cls"):
            erm(inst.cls, smp, "pessimistic", instance=other)

    def test_erm_only_and_version_space_only(self):
        inst = threshold_instance(12, 1.0)
        pol = "first_index"
        res = erm_module._run_trials(inst, 6, [1, 2, 3], pol)
        assert res.version_space_size is None and res.dis_mass is None
        res = erm_module._run_trials(inst, 6, [1, 2, 3], version_space=True)
        assert res.chosen is None and res.empirical_risk is None
        assert res.dis_mass == [oracles.ref_run_trial(inst, 6, pol, s).dis_mass
                                for s in (1, 2, 3)]

    @pytest.mark.parametrize("trials", [0, -2])
    def test_version_space_rejects_empty_trial_counts(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            version_space_disagreement(threshold_instance(8, 1.0), 4, trials, 0)


@pytest.fixture
def position_cap_10(monkeypatch):
    # the package attribute locent.erm is the function erm, not the module
    monkeypatch.setattr(importlib.import_module("locent.erm"), "POSITION_CAP", 10)


class TestAdversarialFamily:
    def test_family_margins_and_separation(self, position_cap_10):
        cls = make_star_class("F1", 2, 6)
        spec = build_adversarial_family(cls, 0.5, 24, seed=1)
        assert spec.size >= 2
        for inst in spec.instances:
            assert np.all(np.abs(inst.eta) == pytest.approx(0.5))
        for i in range(spec.size):
            for j in range(i + 1, spec.size):
                assert spec.rho(i, j) > spec.eps / 2
        for i in range(spec.size):
            assert spec.rho_to_center(i) <= spec.eps

    def test_family_size_matches_local_packing(self, position_cap_10):
        cls = make_star_class("F1", 2, 6)
        spec = build_adversarial_family(cls, 0.5, 24, seed=1)
        lp = local_packing_number(cls, spec.gamma, spec.n_positions, 1.0, seed=1)
        assert spec.size == lp.value

    def test_h_one_rejected(self):
        with pytest.raises(ValueError, match="degenerates"):
            build_adversarial_family(make_star_class("F1", 2, 6), 1.0, 32)

    def test_low_margin_rejected(self):
        with pytest.raises(ValueError, match="sqrt"):
            build_adversarial_family(make_star_class("F1", 2, 6), 0.2, 16)


class TestKl:
    def test_same_vector_zero(self):
        assert kl_closed_form(0, 0.5, 4, 10) == 0.0
        assert kl_exact([1, 0], [1, 0], [1, 1], 0.5, 10) == pytest.approx(0.0)

    def test_single_flip_half_margin(self):
        # one position, one draw, h = 1/2: KL = (1/2) ln 3
        assert kl_closed_form(1, 0.5, 1, 1) == pytest.approx(0.5 * math.log(3))
        assert kl_exact([1], [0], [1], 0.5, 1) == pytest.approx(0.5 * math.log(3))

    def test_product_additivity(self):
        a = kl_closed_form(3, 0.3, 8, 16)
        b = kl_closed_form(3, 0.3, 8, 32)
        assert b == pytest.approx(2 * a)

    def test_closed_matches_joint_oracle(self, rng):
        for _ in range(25):
            size = int(rng.integers(2, 7))
            b1 = rng.integers(0, 2, size)
            b2 = rng.integers(0, 2, size)
            w = rng.integers(1, 4, size)
            h = float(rng.choice([0.1, 0.5, 0.9]))
            n = int(rng.integers(1, 50))
            big_n = int(w.sum())
            rho = int(w[b1 != b2].sum())
            closed = kl_closed_form(rho, h, big_n, n)
            brute = oracles.brute_kl_joint(b1, b2, w, h, big_n, n)
            assert closed == pytest.approx(brute, rel=1e-9, abs=1e-12)

    def test_family_kl_report(self, position_cap_10):
        cls = make_star_class("F1", 2, 6)
        spec = build_adversarial_family(cls, 0.5, 24, seed=1)
        rep = kl_product(spec, 0, spec.size - 1, 24)
        assert rep.relative_gap <= 1e-9

    def test_h_one_infinite(self):
        with pytest.raises(ValueError):
            kl_closed_form(1, 1.0, 2, 2)
