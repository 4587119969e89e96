"""Every library argument check that no other test reaches: one table per
module, each case a call and the ValueError message it must raise."""

import numpy as np
import pytest

from locent.classes import (DomainDistribution, HypothesisClass, LabeledSample,
                            MassartInstance, PointDomain, circle_domain, make_star_class,
                            make_thresholds, sample, threshold_class, threshold_instance)
from locent.doubling import alexander_capacity, doubling_dimension
from locent.erm import kl_exact
from locent.experiments import SweepConfig
from locent.geometry import gamma_loc, gamma_star, global_packing_number, local_packing_number
from locent.measures import growth_function
from locent.multisets import project
from locent.packing import max_packing
from locent.processes import (LossClassView, check_contraction, check_localization_bound,
                              offset_rademacher_sup, shifted_process_sup)

THR3 = threshold_class(3)  # rows ---, +--, ++-, +++
UNIFORM3 = DomainDistribution.uniform(3)
ETA3 = 0.5 * THR3.row(0).astype(float)


CLASSES = {
    "domain-empty": (lambda: PointDomain(()), "at least one point"),
    "domain-repeated-point": (lambda: PointDomain((0, 0)), "unique"),
    "domain-coords-per-point": (lambda: PointDomain((0, 1), np.zeros((3, 1))), "one k-vector"),
    "class-no-rows": (lambda: HypothesisClass(PointDomain.of_size(2), np.zeros((0, 2))),
                      "nonempty 2-d"),
    "class-width": (lambda: HypothesisClass(PointDomain.of_size(3), [[1, 1]]),
                    "width must match"),
    "distribution-empty": (lambda: DomainDistribution([]), "nonempty vector"),
    "instance-target": (lambda: MassartInstance(THR3, UNIFORM3, 4, ETA3, 0.5),
                        "target row index out of range"),
    "instance-px-size": (lambda: MassartInstance(THR3, DomainDistribution.uniform(2), 0,
                                                 ETA3, 0.5), "distribution size"),
    "instance-eta-size": (lambda: MassartInstance(THR3, UNIFORM3, 0, ETA3[:2], 0.5),
                          "one value per domain point"),
    "instance-eta-sign": (lambda: MassartInstance(THR3, UNIFORM3, 0, -ETA3, 0.5),
                          "must agree with the target"),
    "sample-empty": (lambda: LabeledSample([], [], 0), "parallel nonempty"),
    "sample-negative-index": (lambda: LabeledSample([-1], [1], 0), "negative point index"),
    "sample-label": (lambda: LabeledSample([0], [0], 0), "labels must be"),
    "thresholds-no-coords": (lambda: make_thresholds(PointDomain.of_size(3)), "1-d coordinates"),
    "star-class-d": (lambda: make_star_class("F1", 0, 4), "d must be >= 1"),
    "star-class-s": (lambda: make_star_class("F2", 3, 2), "s must be >= d"),
    "star-class-variant": (lambda: make_star_class("F4", 1, 4), "unknown star-class variant"),
    "circle-rounding": (lambda: circle_domain(16, radius=1), "degenerate rounding"),
    "draw-samples-size": (lambda: sample(threshold_instance(3, 0.5), 0, 0),
                          "sample size must be >= 1"),
}


PROCESSES = {
    "view-kind": (lambda: LossClassView(THR3, 0, "squared"), "unknown view"),
    "view-target": (lambda: LossClassView(THR3, 4, "disagreement"), "target row out of range"),
    "view-labels": (lambda: LossClassView(THR3, 0, "excess_loss").values(np.array([0])),
                    "needs labels"),
    "offset-c": (lambda: offset_rademacher_sup(np.ones((2, 3)), -1.0), "c must be >= 0"),
    "offset-values": (lambda: offset_rademacher_sup(np.ones((0, 3)), 0.5),
                      "nonempty matrix"),
    "shifted-c": (lambda: shifted_process_sup(
        LossClassView(THR3, 0, "excess_loss"), threshold_instance(3, 0.5),
        sample(threshold_instance(3, 0.5), 4, 0), -1.0), "c must be >= 0"),
    "contraction-c": (lambda: check_contraction(threshold_instance(8, 0.5), 1.5, 8, 100, 0),
                      r"c must lie in \[0, 1\]"),
    "localization-c": (lambda: check_localization_bound(threshold_instance(8, 0.5),
                                                        "halved_difference", 0.5, 8, 100, 0),
                       r"c must lie in \(0, 1/4\]"),
    "localization-view": (lambda: check_localization_bound(threshold_instance(8, 0.5),
                                                           "excess_loss", 0.25, 8, 100, 0),
                          "zero function"),
}


GEOMETRY = {
    "global-gamma": (lambda: global_packing_number(THR3, -1, 4), "gamma >= 0"),
    "star-c": (lambda: gamma_star(THR3, 1.5, 4), r"c must lie in \(0, 1\]"),
    "star-n": (lambda: gamma_star(THR3, 0.5, 0), "n must be >= 1"),
    "local-gamma": (lambda: local_packing_number(THR3, 0, 4, 0.5), "gamma >= 1"),
    "loc-h": (lambda: gamma_loc(THR3, 0.5, 0.0, 4), "h and h' must lie"),
    "loc-n": (lambda: gamma_loc(THR3, 0.5, 0.5, 0), "n must be >= 1"),
}


DOUBLING = {
    "capacity-eps": (lambda: alexander_capacity(threshold_instance(3, 1.0), 0.0),
                     r"eps must lie in \(0, 1\]"),
    "doubling-gamma": (lambda: doubling_dimension(THR3, UNIFORM3, 1.5), "gamma_frac"),
}


MULTISETS = {
    "empty": (lambda: project(THR3, []), "nonempty"),
    "out-of-range": (lambda: project(THR3, [0, 3]), "out of range"),
}


PACKING = {
    # past this check a negative eps would hang the greedy packing: no row
    # would conflict with itself, so none would leave the candidates
    "eps": (lambda: max_packing(THR3.patterns, -1), "eps must be >= 0"),
    "no-rows": (lambda: max_packing(np.ones((0, 3)), 1), "nonempty matrix"),
}


def _sweep(**changes):
    args = {"instance_factory": lambda h, n: threshold_instance(4, h), "h_grid": (1.0,),
            "n_grid": (4,), "trials": 3, **changes}
    return SweepConfig(**args)


SWEEP_CONFIG = {
    "empty-grid": (lambda: _sweep(h_grid=()), "grids must be nonempty"),
    "trials": (lambda: _sweep(trials=0), "trials must be >= 1"),
}


MEASURES = {"growth-m": (lambda: growth_function(THR3, 0), "m must be >= 1")}
ERM = {"kl-exact-h": (lambda: kl_exact([1], [0], [1], 1.0, 1), r"h in \(0, 1\)")}

TABLES = {"classes": CLASSES, "processes": PROCESSES, "geometry": GEOMETRY,
          "doubling": DOUBLING, "multisets": MULTISETS, "packing": PACKING,
          "sweep-config": SWEEP_CONFIG, "measures": MEASURES, "erm": ERM}
CASES = {f"{module}-{name}": case for module, table in TABLES.items()
         for name, case in table.items()}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES)
def test_argument_check_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()
