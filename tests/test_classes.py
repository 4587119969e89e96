import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locent.classes import (ClassFormatError, DomainDistribution,
                            HypothesisClass, MassartInstance, PatternCountError,
                            PointDomain, load_class, make_linear_separators,
                            make_massart_instance, make_star_class,
                            make_thresholds, sample, save_class)

from conftest import random_class
from oracles import is_affinely_separable, make_rng


def thresholds_on(coords):
    return make_thresholds(PointDomain.from_coords(np.asarray(coords, dtype=float)))


class TestThresholds:
    def test_three_points(self):
        cls = thresholds_on([1.0, 2.0, 3.0])
        got = {tuple(r) for r in cls.patterns}
        assert got == {(1, 1, 1), (1, 1, -1), (1, -1, -1), (-1, -1, -1)}

    def test_single_point(self):
        cls = thresholds_on([0.5])
        assert {tuple(r) for r in cls.patterns} == {(1,), (-1,)}

    def test_duplicate_coords_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            thresholds_on([1.0, 1.0, 2.0])

    def test_chain_structure(self):
        cls = thresholds_on([3.0, 1.0, 2.0, 5.0])  # unsorted on purpose
        assert cls.n_rows == 5
        for r in range(cls.n_rows - 1):
            assert int((cls.patterns[r] != cls.patterns[r + 1]).sum()) == 1


class TestStarClasses:
    def test_f1_small(self):
        cls = make_star_class("F1", 1, 3)
        got = {tuple(r) for r in cls.patterns}
        assert (-1, -1, -1) in got and len(got) == 4

    def test_f1_counts(self):
        assert make_star_class("F1", 2, 4).n_rows == 1 + 4 + 6

    def test_f2_counts_and_allminus_first(self):
        cls = make_star_class("F2", 3, 8)
        assert cls.n_rows == 2 ** 2 * (8 - 3 + 2)
        assert np.all(cls.row(0) == -1)

    def test_f3_builds(self):
        cls = make_star_class("F3", 2, 6, grid=4)
        assert cls.n_rows == 5 * (6 - 2 + 1)
        assert cls.domain.coords is not None

    def test_f3_needs_room(self):
        with pytest.raises(ValueError):
            make_star_class("F3", 3, 4)

    def test_cap_overflow(self):
        with pytest.raises(PatternCountError, match="cap"):
            make_star_class("F1", 10, 40)

    @pytest.mark.parametrize("variant, args, count", [
        ("F2", (3, 8), 2 ** 2 * (8 - 3 + 2)),
        ("F3", (2, 6, 4), 5 * (6 - 2 + 1)),
    ])
    def test_cap_overflow_f2_f3(self, variant, args, count, monkeypatch):
        from locent import classes
        monkeypatch.setattr(classes, "PATTERN_CAP", count - 1)
        with pytest.raises(PatternCountError, match=f"would enumerate {count} patterns, "
                                                    f"above the cap {count - 1}"):
            make_star_class(variant, *args)
        monkeypatch.setattr(classes, "PATTERN_CAP", count)
        assert make_star_class(variant, *args).n_rows == count


class TestLinearSeparators:
    def test_square_is_14_of_16(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        cls = make_linear_separators(PointDomain.from_coords(coords))
        assert cls.n_rows == 14
        # independent route: LP feasibility over all 16 labelings
        from itertools import product
        feasible = [lab for lab in product((1, -1), repeat=4)
                    if is_affinely_separable(coords, lab)]
        assert len(feasible) == 14
        assert {tuple(r) for r in cls.patterns} == set(feasible)
        # the two XOR labelings are the infeasible ones
        assert (1, -1, -1, 1) not in {tuple(r) for r in cls.patterns}

    def test_single_point(self):
        cls = make_linear_separators(PointDomain.from_coords([[2.0, 3.0]]))
        assert cls.n_rows == 2

    def test_cap(self):
        coords = np.random.default_rng(0).normal(size=(21, 2))
        with pytest.raises(ValueError, match="separator cap"):
            make_linear_separators(PointDomain.from_coords(coords))

    @pytest.mark.parametrize("domain", [
        PointDomain.from_coords([[0.0], [1.0], [2.0]]),
        PointDomain.from_coords(np.eye(4)[:, :3]),
        PointDomain.of_size(4),
    ], ids=["1d", "3d", "no-coords"])
    def test_rejects_non_planar(self, domain):
        with pytest.raises(ValueError, match="2-d coordinates"):
            make_linear_separators(domain)


class TestMassartInstance:
    @pytest.mark.parametrize("target", [-1, 9, 99])
    def test_target_out_of_range(self, target):
        # checked before the row is read: a negative index would read a row
        # from the end, one past the last an IndexError
        with pytest.raises(ValueError, match="target row index out of range"):
            make_massart_instance(thresholds_on(np.arange(8.0)), target, 0.5)

    def test_realizable_sampling(self):
        inst = make_massart_instance(thresholds_on([1.0, 2.0, 3.0]), 2, 1.0)
        for seed in range(5):
            smp = sample(inst, 50, seed)
            assert np.all(smp.ys == inst.fstar[smp.xs])

    def test_flip_rate_matches_margin(self):
        inst = make_massart_instance(thresholds_on(np.arange(4.0)), 2, 0.5)
        smp = sample(inst, 100_000, 17)
        flips = (smp.ys != inst.fstar[smp.xs]).mean()
        # binomial: rate 0.25, sd ~ 0.0014
        assert abs(flips - 0.25) < 3 * np.sqrt(0.25 * 0.75 / 100_000)

    def test_per_point_margin_check(self):
        cls = thresholds_on([1.0, 2.0, 3.0])
        px = DomainDistribution.uniform(3)
        eta = np.array([1.0, 0.6, 0.6]) * cls.row(1)
        ok = MassartInstance(cls=cls, px=px, target=1, eta=eta, margin=0.6)
        assert ok.margin == 0.6
        with pytest.raises(ValueError, match="eta"):
            MassartInstance(cls=cls, px=px, target=1, eta=eta, margin=0.7)

    def test_same_seed_same_sample(self):
        inst = make_massart_instance(thresholds_on(np.arange(6.0)), 3, 0.5)
        a, b = sample(inst, 40, 123), sample(inst, 40, 123)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 2 ** 31 - 1), st.integers(1, 400),
           st.booleans())
    def test_sample_draws_as_choice_does(self, points, seed, n, skewed):
        # sample() draws points from the stored CDF; those must be the points
        # rng.choice(p=weights) draws, with the same flip draw after them
        w = np.random.default_rng(seed).random(points) ** (8 if skewed else 1)
        inst = make_massart_instance(thresholds_on(np.arange(float(points))), 0, 0.5,
                                     px=DomainDistribution(w / w.sum()))
        smp = sample(inst, n, seed)
        rng = make_rng(seed)
        xs = rng.choice(points, size=n, p=inst.px.weights)
        flips = rng.random(n) < inst.flip_prob[xs]
        assert np.array_equal(smp.xs, xs)
        assert np.array_equal(smp.ys, np.where(flips, -inst.fstar[xs], inst.fstar[xs]))

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            DomainDistribution([0.5, 0.4])
        with pytest.raises(ValueError):
            DomainDistribution([1.5, -0.5])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_coordinates_rejected(self, bad):
        with pytest.raises(ValueError, match="coordinate 1 of point 1"):
            PointDomain.from_coords([[0.0, 0.0], [1.0, bad]])

    def test_nan_weights_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DomainDistribution(np.array([np.nan, 1.0]))

    def test_all_zero_counts_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                DomainDistribution.from_counts([0, 0])

    @pytest.mark.parametrize("counts", [[1, -1], [np.inf, 1], [np.nan, 1], []])
    def test_bad_counts_rejected_before_dividing(self, counts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                DomainDistribution.from_counts(counts)


class TestClassInvariants:
    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            HypothesisClass(PointDomain.of_size(2),
                            np.array([[1, -1], [1, -1]], dtype=np.int8))

    @pytest.mark.parametrize("width", [7, 8, 9, 70])
    def test_rows_compared_to_the_last_column(self, width):
        row = np.ones(width, dtype=np.int8)
        last = row.copy()
        last[-1] = -1
        assert HypothesisClass(PointDomain.of_size(width), np.stack([row, last])).n_rows == 2
        with pytest.raises(ValueError, match="distinct"):
            HypothesisClass(PointDomain.of_size(width), np.stack([last, last]))

    def test_nonsign_entries_rejected(self):
        with pytest.raises(ValueError, match="\\+-1"):
            HypothesisClass(PointDomain.of_size(2),
                            np.array([[1, 0]], dtype=np.int8))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_generators_satisfy_invariants(self, seed):
        cls = random_class(np.random.default_rng(seed))
        assert np.all(np.abs(cls.patterns) == 1)
        assert len({r.tobytes() for r in cls.patterns}) == cls.n_rows


class TestClassFile:
    def test_roundtrip(self, tmp_path, rng):
        for cls in [thresholds_on(np.arange(5.0)),
                    make_star_class("F2", 2, 5),
                    random_class(rng)]:
            path = tmp_path / "cls.txt"
            save_class(cls, path)
            assert load_class(path).equals(cls)

    def test_duplicate_row_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("points 2\n+-\n+-\n")
        with pytest.raises(ClassFormatError, match="line 3"):
            load_class(path)

    def test_zero_entry_rejected(self, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("points 2\n+0\n")
        with pytest.raises(ClassFormatError, match="line 2"):
            load_class(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("classifiers 2\n++\n")
        with pytest.raises(ClassFormatError, match="line 1"):
            load_class(path)

    def test_missing_coords(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("points 2 dim 1\ncoord 1.0\n++\n")
        with pytest.raises(ClassFormatError, match="coord"):
            load_class(path)

    @pytest.mark.parametrize("text, message", [
        ("\n\n", "line 1: empty class file"),
        ("points x\n++\n", "line 1: non-integer header field"),
        ("points 0\n", "line 1: sizes must be positive"),
        ("points 2 dim 2\ncoord 1.0 2.0\ncoord 3.0\n++\n", "line 3: expected 2 coordinates"),
        ("points 1 dim 1\ncoord one\n+\n", "line 2: non-numeric coordinate"),
        ("points 2 dim 1\ncoord 1.0\ncoord 2.0\n", "line 3: class needs at least one pattern row"),
    ], ids=["empty", "header-not-integer", "zero-points", "coord-count", "coord-not-numeric",
            "no-rows"])
    def test_format_errors_name_their_line(self, text, message, tmp_path):
        path = tmp_path / "cls.txt"
        path.write_text(text)
        with pytest.raises(ClassFormatError, match=f"^{message}$"):
            load_class(path)
