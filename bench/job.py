"""One benchmark job in a fresh process.

    python3 bench/job.py SPEC_JSON

SPEC_JSON is written by bench/run.py.  Its "mode" is one of:

  cli     run `locent <argv>` the way the console script does
  lib     call one library entry point from the README and write its result
  replay  run `locent replay` on an artifact and replay every packing,
          shatter and star witness the regenerated run produced
  verify  replay the packing witness of a `lib` result

The job writes a small JSON record to spec["meta"]: the time.perf_counter()
reading when it was ready to dispatch (CLOCK_MONOTONIC, shared by all
processes on Linux, so the parent can subtract its own spawn time), the
exit code, its peak resident set, witness checks, and, when spec["trace"]
is set, the layer summary.  The process exits with the job's exit code.
"""

from __future__ import annotations

import json
import sys
import time


def _build_class(desc: dict):
    import numpy as np
    from locent import PointDomain, make_star_class, make_thresholds
    if desc["generator"] == "thresholds":
        n = desc["points"]
        return make_thresholds(PointDomain.from_coords(np.arange(1.0, n + 1.0)))
    return make_star_class(desc["generator"].upper(), desc["d"], desc["s"])


def _lib_max_packing(call: dict) -> dict:
    from locent import max_packing
    res = max_packing(_build_class(call["cls"]).patterns, call["eps"])
    return {"size": res.size, "witness": list(res.witness), "radius": res.radius,
            "mode": res.mode, "budget_hit": res.budget_hit, "exact": res.mode == "exact"}


def _lib_doubling_dimension(call: dict) -> dict:
    from locent import DomainDistribution, doubling_dimension
    cls = _build_class(call["cls"])
    res = doubling_dimension(cls, DomainDistribution.uniform(cls.n_points), call["gamma_frac"])
    return {"value": res.value, "exact": res.exact, "center_row": res.center_row,
            "eps": res.eps, "cover_size": res.cover_size}


def _lib_version_space(call: dict) -> dict:
    from locent import make_massart_instance, version_space_disagreement
    cls = _build_class(call["cls"])
    instance = make_massart_instance(cls, (cls.n_points + 1) // 2, 1.0)
    mean, ci = version_space_disagreement(instance, call["n"], call["trials"], call["seed"])
    return {"mean": mean, "ci": ci}


LIBRARY = {
    "max_packing": _lib_max_packing,
    "doubling_dimension": _lib_doubling_dimension,
    "version_space_disagreement": _lib_version_space,
}


# ---------------------------------------------------------------------------
# witness replays


def _local_packing_ok(cls, multiset, center, witness, ball_radius, separation) -> bool:
    """A local packing certificate: on the multiset's projection the witness
    rows are pairwise more than `separation` apart and all lie within
    `ball_radius` of the center row."""
    import numpy as np
    from locent.geometry import verify_packing
    from locent.util import hamming_matrix
    support, counts = np.unique(np.asarray(multiset), return_counts=True)
    rows = [center] + list(witness)
    dists = hamming_matrix(cls.patterns[rows][:, support], weights=counts)
    return (verify_packing(dists[1:, 1:], separation, range(len(witness)))
            and bool((dists[0, 1:] <= ball_radius).all()))


def _capture(results: list) -> None:
    """Record (function, first argument, result) of every call that carries a witness."""
    from tracing import rebind
    from locent import geometry, measures
    for module, name in ((measures, "vc_dimension"), (measures, "star_number"),
                         (geometry, "local_packing_number"), (geometry, "gamma_loc")):
        fn = getattr(module, name)

        def captured(*args, _fn=fn, _name=name, **kwargs):
            result = _fn(*args, **kwargs)
            results.append((_name, args[0], result))
            return result

        rebind(fn, captured)


def _replay_witnesses(results: list) -> tuple[int, list[str]]:
    """Replay every captured witness against its definition; (checked, failures)."""
    from locent.measures import verify_shattered, verify_star_witness
    checked, failures = 0, []
    for name, cls, res in results:
        if name == "vc_dimension":
            ok = len(res.witness) == res.value and verify_shattered(cls, tuple(res.witness))
            certs = [ok]
        elif name == "star_number":
            center, points, rows = res.witness
            ok = len(points) == res.value and verify_star_witness(cls, center, points, rows)
            certs = [ok]
        elif name == "local_packing_number":
            certs = [] if not res.witness else [
                len(res.witness) == res.value and _local_packing_ok(
                    cls, res.multiset, res.center_row, res.witness,
                    res.ball_radius, res.separation)]
        else:  # gamma_loc: every scan row that names its packing
            certs = [len(row["witness"]) == row["witness_size"] and _local_packing_ok(
                cls, row["multiset"], row["center_row"], row["witness"],
                row["ball_radius"], row["separation"])
                for row in res.scan if row.get("witness")]
        checked += len(certs)
        failures += [f"{name} witness fails its definition"] * certs.count(False)
    return checked, failures


def _verify_lib(spec: dict) -> tuple[int, list[str]]:
    with open(spec["artifact"], encoding="utf-8") as fh:
        result = json.load(fh)
    if spec["call"]["fn"] != "max_packing":
        return 0, []
    from locent.geometry import verify_packing
    from locent.util import hamming_matrix
    cls = _build_class(spec["call"]["cls"])
    ok = (len(result["witness"]) == result["size"]
          and verify_packing(hamming_matrix(cls.patterns), result["radius"], result["witness"]))
    return 1, [] if ok else ["max_packing witness fails its definition"]


# ---------------------------------------------------------------------------


def _peak_rss_kb() -> int:
    """High-water resident set of this process image (VmHWM); unlike
    ru_maxrss it does not count the parent's pages from before exec."""
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _write_lib_result(spec: dict) -> int:
    result = LIBRARY[spec["call"]["fn"]](spec["call"])
    with open(spec["out"], "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, sort_keys=True, indent=2) + "\n")
    return 0


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import locent.cli
    mode = spec["mode"]
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer
        tracer = Tracer(spec["job"])
        tracer.install()
    captured: list = []
    if mode == "replay":
        _capture(captured)
    meta = {"ready": time.perf_counter()}

    if mode == "cli":
        fn, arg = locent.cli.dispatch, spec["argv"]
    elif mode == "lib":
        fn, arg = _write_lib_result, spec
    elif mode == "replay":
        fn, arg = locent.cli.dispatch, ["replay", spec["artifact"], "--out", spec["out"]]
    else:
        fn, arg = _verify_lib, spec
    out = tracer.run(fn, arg) if tracer else fn(arg)

    rc = 0 if mode == "verify" else out
    if mode == "replay":
        meta["witnesses"], meta["failures"] = _replay_witnesses(captured)
    elif mode == "verify":
        meta["witnesses"], meta["failures"] = out
    if tracer:
        meta["trace"] = tracer.summary()
    meta["rc"] = rc
    meta["peak_rss_kb"] = _peak_rss_kb()
    with open(spec["meta"], "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
