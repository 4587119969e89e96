"""Layer spans for one benchmark job, recorded by rebinding locent's module attributes.

Every function named in LAYERS is replaced, in every locent module that
holds a reference to it, by a wrapper that records a span (name, start,
end, parent span, job id) and updates deterministic work counters.  The
program itself is unchanged: a span covers exactly one call of a public
function, so a layer's self time is the time its calls spent outside any
other traced call.

Helpers that run once per element of an inner loop (tlog, make_rng,
empirical_risks, excess_risk, the verify_* replays, ...) are not wrapped:
their time stays in the calling layer, and wrapping them would cost more
than the work they do.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# module -> function -> layer; a layer's self time is reported as "<layer>_s"
LAYERS = {
    "util": {"hamming_matrix": "util.hamming", "hamming_to_all": "util.hamming"},
    "geometry": {
        "project": "geometry.project",
        "gamma_loc": "geometry.search",
        "gamma_star": "geometry.search",
        "local_packing_number": "geometry.search",
        "global_packing_number": "geometry.search",
        "pseudoconvexity_constant": "geometry.search",
        "max_packing": "geometry.max_packing",
        "doubling_dimension": "geometry.doubling",
        "alexander_capacity": "geometry.other",
    },
    "separators": {
        "enumerate_separator_patterns": "separators.enumerate",
        "is_affinely_separable": "separators.enumerate",
    },
    "measures": {
        "vc_dimension": "measures.vc",
        "growth_function": "measures.growth",
        "star_number": "measures.star",
    },
    "processes": {
        "check_symmetrization_expectation": "processes.check",
        "check_contraction": "processes.check",
        "check_localization_bound": "processes.check",
        "offset_rademacher_sup": "processes.check",
        "shifted_process_sup": "processes.check",
        "sudakov_check": "processes.check",
    },
    "classes": {
        "sample": "classes.sample",
        "make_thresholds": "classes.generate",
        "make_star_class": "classes.generate",
        "make_linear_separators": "classes.generate",
        "make_massart_instance": "classes.generate",
        "load_class": "classes.generate",
        "save_class": "classes.generate",
    },
    "erm": {
        "erm": "erm.select",
        "run_trial": "erm.trial",
        "version_space_disagreement": "erm.version_space",
        "build_adversarial_family": "erm.family",
        "kl_product": "erm.family",
        "kl_closed_form": "erm.family",
        "kl_exact": "erm.family",
    },
    "experiments": {
        "run_rate_sweep": "experiments.sweep",
        "check_sandwich": "experiments.other",
        "check_star_theorem": "experiments.other",
        "star_class_separation": "experiments.other",
        "lower_bound_report": "experiments.other",
        "fit_loglog_slope": "experiments.other",
    },
}

# the span around the job's entry point; its self time is the CLI's own work
ROOT_LAYER = "cli.self"

LAYER_NAMES = sorted({layer for table in LAYERS.values() for layer in table.values()}
                     | {ROOT_LAYER})


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# Work counters, computed from argument and result shapes.  Each takes
# (counts, args, kwargs, result, inner) where inner is the number of spans
# recorded during the call.

def _count_hamming(counts, args, kwargs, result, inner):
    a = _arg(args, kwargs, 0, "patterns")
    counts["util.hamming.calls"] += 1
    # a float32 operand, then a float32 product and an integer result per entry
    counts["util.hamming.bytes_computed"] += 4 * a.size + 8 * result.size
    counts["util.hamming.flops_computed"] += 2 * result.size * a.shape[-1]


def _count_project(counts, args, kwargs, result, inner):
    counts["geometry.project.calls"] += 1
    if inner == 0:  # served from the projection cache: no Hamming kernel ran
        counts["geometry.project.hits"] += 1
    else:
        counts["geometry.project.patterns"] += result.n_patterns


def _count_fixed_point(counts, args, kwargs, result, inner):
    counts["geometry.fixed_point.calls"] += 1
    counts["geometry.fixed_point.exact"] += bool(result.exact)


def _count_max_packing(counts, args, kwargs, result, inner):
    counts["geometry.max_packing.calls"] += 1
    counts["geometry.max_packing.certified"] += result.mode == "exact"


def _count_separators(counts, args, kwargs, result, inner):
    counts["separators.dichotomies"] += int(result.shape[0])


def _count_measure(counts, args, kwargs, result, inner):
    counts["measures.calls"] += 1
    counts["measures.budget_hits"] += bool(result.search_budget_hit)


def _count_trials(pos: int, default=None):
    """Counter for a check whose `trials` argument sits at position pos."""
    def count(counts, args, kwargs, result, inner):
        counts["processes.trials"] += _arg(args, kwargs, pos, "trials", default)
    return count


def _count_sample(counts, args, kwargs, result, inner):
    counts["classes.sample.calls"] += 1
    counts["classes.sample.draws"] += int(_arg(args, kwargs, 1, "n"))


def _count_erm(counts, args, kwargs, result, inner):
    counts["erm.select.calls"] += 1


def _count_trial(counts, args, kwargs, result, inner):
    counts["erm.trial.calls"] += 1


def _count_sign_terms(counts, args, kwargs, result, inner):
    # processes._sup_mean(values, penalties, mode, reps, rng) returns the
    # number of sign vectors it used; each is multiplied against every row
    values = args[0]
    rows, n = values.shape
    counts["processes.sign_terms_computed"] += int(result[3]) * rows * n


COUNTERS = {
    "util.hamming_matrix": _count_hamming,
    "util.hamming_to_all": _count_hamming,
    "geometry.project": _count_project,
    "geometry.gamma_loc": _count_fixed_point,
    "geometry.gamma_star": _count_fixed_point,
    "geometry.max_packing": _count_max_packing,
    "separators.enumerate_separator_patterns": _count_separators,
    "measures.vc_dimension": _count_measure,
    "measures.growth_function": _count_measure,
    "measures.star_number": _count_measure,
    "processes.check_symmetrization_expectation": _count_trials(4),
    "processes.check_contraction": _count_trials(3),
    "processes.check_localization_bound": _count_trials(4),
    "processes.sudakov_check": _count_trials(1, 4000),
    "classes.sample": _count_sample,
    "erm.erm": _count_erm,
    "erm.run_trial": _count_trial,
}

COUNT_NAMES = (
    "util.hamming.calls", "util.hamming.bytes_computed", "util.hamming.flops_computed",
    "geometry.project.calls", "geometry.project.hits", "geometry.project.patterns",
    "geometry.fixed_point.calls", "geometry.fixed_point.exact",
    "geometry.max_packing.calls", "geometry.max_packing.certified",
    "separators.dichotomies", "measures.calls", "measures.budget_hits",
    "processes.trials", "processes.sign_terms_computed",
    "classes.sample.calls", "classes.sample.draws",
    "erm.select.calls", "erm.trial.calls",
)


def rebind(old, new) -> None:
    """Replace every reference to `old` held by a loaded locent module."""
    for name, module in list(sys.modules.items()):
        if name == "locent" or name.startswith("locent."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


class Tracer:
    """In-memory spans and counters for one job; spans are kept until the job ends."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list = []          # (name, start, end, parent index, job)
        self._stack = [-1]
        self.counts = defaultdict(int)

    def _wrap(self, name: str, fn, count):
        spans, stack, counts, clock, job = self.spans, self._stack, self.counts, time.perf_counter, self.job

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, job)
            if count is not None:
                count(counts, args, kwargs, result, len(spans) - idx - 1)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS that the program still has."""
        for mod_name, table in LAYERS.items():
            module = importlib.import_module(f"locent.{mod_name}")
            for fname in table:
                qual = f"{mod_name}.{fname}"
                fn = getattr(module, fname, None)
                if fn is not None:
                    rebind(fn, self._wrap(qual, fn, COUNTERS.get(qual)))
        # count-only hook: the sign-enumeration supremum is private, so its
        # time stays with the calling check while its terms are counted
        processes = importlib.import_module("locent.processes")
        sup_mean = getattr(processes, "_sup_mean", None)
        if sup_mean is None:
            return
        counts = self.counts

        def counted(*args, **kwargs):
            result = sup_mean(*args, **kwargs)
            _count_sign_terms(counts, args, kwargs, result, 0)
            return result

        processes._sup_mean = counted

    def run(self, fn, *args):
        """Call fn inside the job's root span and return its result."""
        return self._wrap("cli.root", fn, None)(*args)

    def summary(self) -> dict:
        """Per-layer self times, counters and the root span's duration."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_of = {f"{m}.{f}": layer for m, table in LAYERS.items() for f, layer in table.items()}
        layer_of["cli.root"] = ROOT_LAYER
        self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[layer_of[name]] += (end - start) - child[i]
        root = self.spans[0]
        return {"wall": root[2] - root[1], "self_s": self_s,
                "counts": {k: self.counts.get(k, 0) for k in COUNT_NAMES},
                "spans": len(self.spans)}
