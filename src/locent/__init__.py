"""Combinatorial complexity measures and ERM experiments for finite binary classes.

The public names are re-exported lazily (PEP 562): `from locent import X`
imports only the module that defines X, so a process compiles only the
modules it uses.
"""

import importlib
import sys
import types

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("DomainDistribution", "HypothesisClass", "LabeledSample",
                     "MassartInstance", "PointDomain", "load_class",
                     "make_linear_separators", "make_massart_instance",
                     "make_star_class", "make_thresholds", "sample", "save_class"),
                    "classes"),
    **dict.fromkeys(("AdversarialSpec", "TrialReport",
                     "build_adversarial_family", "erm", "excess_risk", "kl_product",
                     "run_trial", "version_space_disagreement"), "erm"),
    **dict.fromkeys(("SweepConfig", "SweepTable", "check_sandwich",
                     "check_star_theorem", "fit_loglog_slope", "run_rate_sweep"),
                    "experiments"),
    **dict.fromkeys(("alexander_capacity", "doubling_dimension"), "doubling"),
    **dict.fromkeys(("FixedPointResult", "gamma_loc", "gamma_star", "global_packing_number",
                     "local_packing_number", "pseudoconvexity_constant"), "geometry"),
    **dict.fromkeys(("MeasureResult", "growth_function", "star_number",
                     "vc_dimension"), "measures"),
    "project": "multisets",
    **dict.fromkeys(("PackingResult", "max_packing"), "packing"),
    **dict.fromkeys(("LossClassView", "ProcessEstimate", "check_contraction",
                     "check_localization_bound", "check_symmetrization_expectation",
                     "offset_rademacher_sup", "shifted_process_sup", "sudakov_check"),
                    "processes"),
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # the import system binds a loaded submodule to its name here; `erm`
        # names the function, so `locent.erm` stays it in either import order
        if isinstance(value, types.ModuleType) and name in _EXPORTS:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
