"""The result and input records: immutable, tuples only where the README says
so, and equal as their callers compare them."""

import copy
import pickle

import numpy as np
import pytest

from locent import chains
from locent.classes import (DomainDistribution, HypothesisClass, LabeledSample,
                            MassartInstance, PointDomain, make_star_class, sample,
                            threshold_class, threshold_instance)
from locent.doubling import doubling_dimension
from locent.erm import build_adversarial_family, kl_product, run_trial
from locent.experiments import (SweepConfig, SweepTable, check_sandwich, check_star_theorem,
                                run_rate_sweep)
from locent.geometry import (gamma_loc, global_packing_number, local_packing_number,
                             pseudoconvexity_constant)
from locent.measures import vc_dimension
from locent.multisets import project
from locent.packing import max_packing
from locent.processes import LossClassView, offset_rademacher_sup, sudakov_check


def _one_of_each():
    """One instance of every record type, each from the call that makes it."""
    inst = threshold_instance(6, 0.5)
    cls = inst.cls
    view = LossClassView(cls, inst.target, "halved_difference")
    spec = build_adversarial_family(make_star_class("F1", 2, 6), 0.5, 24)
    sweep = SweepConfig(instance_factory=lambda h, n: threshold_instance(6, h),
                        h_grid=(1.0,), n_grid=(4,), trials=3)
    return {
        "PointDomain": cls.domain,
        "HypothesisClass": cls,
        "DomainDistribution": inst.px,
        "MassartInstance": inst,
        "LabeledSample": sample(inst, 5, 0),
        "LossClassView": view,
        "SweepConfig": sweep,
        "SweepTable": run_rate_sweep(sweep),
        "InequalityReport": sudakov_check(view.domain_values(), trials=10),
        "ProcessEstimate": offset_rademacher_sup(view.domain_values(), 0.5),
        "_Chain": chains._chain(cls),
        "PackingResult": max_packing(cls.patterns, 1),
        "Projection": project(cls, [0, 1, 1, 3]),
        "FixedPointResult": gamma_loc(cls, 0.5, 0.5, 6),
        "GlobalPackingResult": global_packing_number(cls, 1, 4),
        "LocalPackingResult": local_packing_number(cls, 1, 4, 0.5),
        "PseudoconvexityReport": pseudoconvexity_constant(cls, 0.5, 6),
        "DoublingResult": doubling_dimension(cls, inst.px, 0.2),
        "MeasureResult": vc_dimension(cls),
        "TrialReport": run_trial(inst, 5, "first_index", 0),
        "AdversarialSpec": spec,
        "KLReport": kl_product(spec, 0, 1, 24),
        "SandwichReport": check_sandwich(cls, 1.0, 6),
        "StarTheoremReport": check_star_theorem(cls, 6, 3, 0),
    }


NAMES = sorted(["PointDomain", "HypothesisClass", "DomainDistribution", "MassartInstance",
                "LabeledSample", "LossClassView", "SweepConfig", "SweepTable",
                "InequalityReport", "ProcessEstimate", "_Chain", "PackingResult", "Projection",
                "FixedPointResult", "GlobalPackingResult", "LocalPackingResult",
                "PseudoconvexityReport", "DoublingResult", "MeasureResult", "TrialReport",
                "AdversarialSpec", "KLReport", "SandwichReport", "StarTheoremReport"])
# records that validate their arguments, and results that must not be tuples
PLAIN = {"PointDomain", "HypothesisClass", "DomainDistribution", "MassartInstance",
         "LabeledSample", "LossClassView", "SweepConfig", "SweepTable", "InequalityReport"}


@pytest.fixture(scope="module")
def records():
    return _one_of_each()


def test_every_record_type_is_covered(records):
    assert len(NAMES) == 24 and sorted(records) == NAMES
    assert all(type(rec).__name__ == name for name, rec in records.items())


@pytest.mark.parametrize("name", NAMES)
def test_assigning_a_field_raises(records, name):
    rec = records[name]
    field = rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    assert getattr(rec, field) is not None


@pytest.mark.parametrize("name", NAMES)
def test_only_result_records_are_tuples(records, name):
    assert isinstance(records[name], tuple) == (name not in PLAIN)


def test_plain_records_compare_by_fields_and_classes_by_identity():
    dom = PointDomain.of_size(3)
    assert dom == PointDomain.of_size(3) and hash(dom) == hash(PointDomain.of_size(3))
    assert dom != PointDomain.of_size(4)
    cls = HypothesisClass(dom, np.array([[1, 1, 1], [-1, 1, 1]]))
    twin = HypothesisClass(dom, cls.patterns)
    assert cls == cls and cls != twin and cls.equals(twin)
    assert len({cls, twin}) == 2
    view = LossClassView(cls, 0, "disagreement")
    assert view == LossClassView(cls, 0, "disagreement") != LossClassView(twin, 0, "disagreement")
    assert view.domain_values() is view.domain_values()  # computed in __init__


def test_plain_records_pickle_and_copy_through_their_validation():
    inst = threshold_instance(5, 0.5)
    again = pickle.loads(pickle.dumps(inst))
    assert np.array_equal(again.eta, inst.eta) and again.cls.equals(inst.cls)
    assert not again.eta.flags.writeable
    smp = copy.copy(sample(inst, 4, 2))
    assert isinstance(smp, LabeledSample) and smp.seed == 2
    assert copy.deepcopy(DomainDistribution.uniform(4)).cdf[-1] == 1.0
    with pytest.raises(ValueError, match="margin"):
        MassartInstance(inst.cls, inst.px, inst.target, inst.eta, 0.0)


def test_sweep_table_is_not_iterable_as_a_tuple():
    table = SweepTable(rows=({"h": 1.0},))
    with pytest.raises(TypeError):
        iter(table)
    assert "rows=" in repr(table)


def test_packing_records_relabel_with_replace():
    res = max_packing(threshold_class(5).patterns, 1)
    moved = res._replace(radius=2)
    assert (moved.radius, moved.size, moved.witness) == (2, res.size, res.witness)
