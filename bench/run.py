"""locent benchmark: fixed job mixes run end to end, checked, optionally traced.

    python3 bench/run.py --workload fixed-points --seed 0 --seconds 22 --trace 0

Run from the root of a source checkout; the jobs import locent from src/.
One client runs the workload's jobs one at a time (a closed loop), each in
a fresh process, and repeats the whole pass until --seconds have elapsed.
With --trace 1 one more pass runs with every layer wrapped (see
tracing.py) and the per-layer metrics are reported instead of the
end-to-end ones.  After timing, an untimed check pass replays every
artifact.  The last line of standard output is one JSON object; the exit
code is 0 only when every job and every check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from tracing import COUNT_NAMES, LAYER_NAMES
from workloads import FAMILIES, WORKLOADS, cli_argv, resolve

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference_digests.json"
JOB_TIMEOUT_S = 170
CHECK_WORKERS = 2
# One BLAS thread per job: on a shared two-core machine a second OpenBLAS
# thread mostly spins, and makes every timing depend on the neighbour's load.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# calibrate() time on the machine the bounds were set on (2-vCPU Intel Xeon
# microVM, Python 3.11.7, numpy 2.4.6) when it runs at full speed.  Times are
# reported in reference seconds: measured seconds times CAL_REF_S over the
# calibration measured around the same job.
CAL_REF_S = 0.045

END_TO_END = {"wall_s": "s", "slowest_job_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "certified_share": "share"}
# printed with the end-to-end metrics; not in the JSON result because they
# are 0 on a clean run, or absent from workloads without that job family
REPORTED = {**{f"{f}_s": "s" for f in FAMILIES}, "failed_share": "share"}
RATIOS = {  # ratio metric -> (numerator count, denominator count)
    "geometry.project.cache_hit_ratio": ("geometry.project.hits", "geometry.project.calls"),
    "geometry.fixed_point.exact_ratio": ("geometry.fixed_point.exact", "geometry.fixed_point.calls"),
    "geometry.max_packing.certified_ratio": ("geometry.max_packing.certified",
                                             "geometry.max_packing.calls"),
    "measures.budget_hit_ratio": ("measures.budget_hits", "measures.calls"),
}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("bytes_computed") or metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("flops_computed"):
        return "flop"
    return "count"


def per_layer_names() -> list[str]:
    hidden = {num for num, _ in RATIOS.values()}
    return ([f"{layer}_s" for layer in LAYER_NAMES]
            + [c for c in COUNT_NAMES if c not in hidden] + list(RATIOS)
            + ["cli.artifact_bytes", "cli.artifacts_changed", "trace.overhead_s"]
            + [f"{f}_s" for f in FAMILIES])


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy loaded in this process, if it says."""
    import numpy  # noqa: F401  (loads the BLAS library)
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(seed: int, cpu: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "timed_cpu": cpu, "commit": commit or "unknown (not a git checkout)",
            "dirty": None if status is None else bool(status), "seed": seed}


# ---------------------------------------------------------------------------
# running jobs


def calibrate() -> float:
    """Seconds for a fixed slice of interpreter, small-array and
    memory-streaming work.

    The shared virtual CPU runs at a speed that drifts by half over minutes;
    this slice, timed right before and after each job on the same CPU,
    tracks that drift, and no locent change can move it."""
    import numpy as np
    start = time.perf_counter()
    rows = np.arange(4096, dtype=np.float64).reshape(64, 64)
    total = 0
    for i in range(400_000):
        total += i & 7
    for _ in range(3_000):
        total += int((rows @ rows[0]).argmax())
    signs = np.ones((1 << 16, 16), dtype=np.float32)
    values = np.ones((17, 16), dtype=np.float32)
    for _ in range(6):
        total += int((signs @ values.T).max(axis=1).sum())
    return time.perf_counter() - start


def _spawn(spec: dict, err_path: Path) -> tuple[int, float, float]:
    """Run bench/job.py on spec; (exit code, start, end).  A job past
    JOB_TIMEOUT_S is killed; an interrupted run kills and reaps its job."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "job.py"), json.dumps(spec)],
                                cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            proc.returncode = os.waitstatus_to_exitcode(os.waitpid(proc.pid, 0)[1])
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    return proc.returncode, start, end


def _digests(folder: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(folder.iterdir())}


def run_job(job, index: int, folder: Path, seed: int, smoke: bool, trace: bool) -> dict:
    out_dir = folder / job.name
    out_dir.mkdir(parents=True)
    out = out_dir / job.artifact
    meta_path = folder / f"{job.name}.meta.json"
    opts = resolve(job, index, seed, smoke)
    spec = {"src": str(SRC), "job": job.name, "trace": trace, "meta": str(meta_path),
            "out": str(out)}
    if job.sub:
        spec.update(mode="cli", argv=cli_argv(job, opts, str(out)))
    else:
        spec.update(mode="lib", call=opts)
    rc, start, end = _spawn(spec, folder / f"{job.name}.stderr")
    rec = {"job": job, "spec": spec, "time": end - start, "rss_mb": 0.0,
           "dir": out_dir, "files": _digests(out_dir), "failures": []}
    if rc != 0:
        rec["failures"].append(f"exit code {rc}, expected 0")
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        rec["setup"] = meta["ready"] - start
        rec["rss_mb"] = meta["peak_rss_kb"] / 1024.0
        rec["trace"] = meta.get("trace")
    else:
        rec["failures"].append("job wrote no record")
    if not rec["files"]:
        rec["failures"].append("job wrote no artifact")
    return rec


def run_pass(jobs, folder: Path, seed: int, smoke: bool, trace: bool) -> dict:
    """Run every job once, calibrating before each job and after the last;
    each record's `scale` turns its seconds into reference seconds."""
    folder.mkdir(parents=True)
    cal = [calibrate()]
    records = []
    for i, job in enumerate(jobs):
        records.append(run_job(job, i, folder, seed, smoke, trace))
        cal.append(calibrate())
        records[-1]["scale"] = 2 * CAL_REF_S / (cal[-2] + cal[-1])
    return {"records": records, "cal": cal}


# ---------------------------------------------------------------------------
# output checks (untimed)


def _check_job(rec: dict, folder: Path) -> list[str]:
    """Replay a CLI artifact (or verify a library result) in a fresh process."""
    job, spec = rec["job"], rec["spec"]
    replay_dir = folder / job.name
    replay_dir.mkdir(parents=True)
    meta_path = folder / f"{job.name}.meta.json"
    check = {"src": str(SRC), "job": job.name, "meta": str(meta_path),
             "artifact": spec["out"], "out": str(replay_dir / job.artifact)}
    if job.sub:
        check["mode"] = "replay"
    elif spec["call"]["fn"] == "max_packing":
        check.update(mode="verify", call=spec["call"])
    else:
        return []  # no witness to replay; cross-pass identity still applies
    rc, _, _ = _spawn(check, folder / f"{job.name}.stderr")
    failures = [] if rc == 0 else [f"check exit code {rc}, expected 0"]
    if not meta_path.exists():
        return failures + ["check wrote no record"]
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    rec["witnesses"] = meta["witnesses"]
    failures += meta["failures"]
    if job.sub and _digests(replay_dir) != rec["files"]:
        failures.append("replay did not regenerate the artifact byte-identically")
    return failures


def check_outputs(passes: list[dict], folder: Path) -> None:
    """Attach every failure to the job record it belongs to."""
    first = passes[0]["records"]
    for p in passes[1:]:
        for rec, ref in zip(p["records"], first):
            if rec["files"] != ref["files"]:
                rec["failures"].append("artifact differs from the first pass")
    folder.mkdir(parents=True)
    with ThreadPoolExecutor(CHECK_WORKERS) as pool:
        futures = [(rec, pool.submit(_check_job, rec, folder)) for rec in first]
        for rec, fut in futures:
            rec["failures"] += fut.result()


def trace_additivity(traced: dict) -> None:
    """Each job's layer self times must add up to its traced wall time."""
    for rec in traced["records"]:
        summary = rec.get("trace")
        if summary and abs(sum(summary["self_s"].values()) - summary["wall"]) > 1e-6:
            rec["failures"].append("layer self times do not add up to the traced wall time")


def certified_flags(rec: dict) -> list[bool]:
    """Every exact flag an artifact carries (JSON booleans named "exact",
    and the *_exact / *_heuristic / *_lower tokens of CSV exact_flags)."""
    path = Path(rec["spec"]["out"])
    if not path.exists():
        return []
    if path.suffix == ".csv":
        with open(path, encoding="utf-8") as fh:
            rows = csv.DictReader(line for line in fh if not line.startswith("#"))
            return [tok.endswith("_exact") for row in rows
                    for tok in row.get("exact_flags", "").split("|") if tok]
    data = json.loads(path.read_text(encoding="utf-8"))
    data.pop("config", None)
    flags = []

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "exact" and isinstance(value, bool):
                    flags.append(value)
                else:
                    walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(data)
    return flags


# ---------------------------------------------------------------------------
# metrics


def _families(records: list[dict], times: list[float]) -> dict:
    out = dict.fromkeys(FAMILIES, 0.0)
    for rec, t in zip(records, times):
        out[rec["job"].family] += t
    return out


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """Each job's median over the run's passes, in reference seconds; a pass
    is the sum of its jobs' medians, which a slow burst in one pass cannot move."""
    first = passes[0]["records"]
    records = [rec for p in passes for rec in p["records"]]
    times = [statistics.median(p["records"][i]["time"] * p["records"][i]["scale"]
                               for p in passes) for i in range(len(first))]
    flags = [f for rec in first for f in certified_flags(rec)]
    metrics = {
        "wall_s": sum(times),
        "slowest_job_s": max(times),
        "setup_s": statistics.median([r["setup"] * r["scale"] for r in records if "setup" in r]
                                     or [0.0]),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "certified_share": sum(flags) / len(flags) if flags else 0.0,
    }
    present = {rec["job"].family for rec in first}
    reported = {f"{f}_s": t for f, t in _families(first, times).items() if f in present}
    return metrics, reported


def per_layer(traced: dict, untraced_wall: float, changed: int) -> dict:
    """Sums over the traced pass; times in reference seconds."""
    records = traced["records"]
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    counts = dict.fromkeys(COUNT_NAMES, 0)
    for rec in records:
        summary = rec.get("trace") or {"self_s": {}, "counts": {}}
        for layer, value in summary["self_s"].items():
            self_s[layer] += value * rec["scale"]
        for name, value in summary["counts"].items():
            counts[name] += value
    metrics = {f"{layer}_s": value for layer, value in self_s.items()}
    metrics.update(counts)
    for ratio, (num, den) in RATIOS.items():
        metrics[ratio] = counts[num] / counts[den] if counts[den] else 0.0
    times = [rec["time"] * rec["scale"] for rec in records]
    metrics["cli.artifact_bytes"] = sum(p.stat().st_size for rec in records
                                        for p in rec["dir"].iterdir())
    metrics["cli.artifacts_changed"] = changed
    metrics["trace.overhead_s"] = sum(times) - untraced_wall
    metrics.update({f"{f}_s": t for f, t in _families(records, times).items()})
    return {name: metrics[name] for name in per_layer_names()}


def artifacts_changed(workload: str, seed: int, files: dict) -> int | None:
    """Artifacts whose bytes differ from the stored reference (None: no reference)."""
    if not REFERENCE.exists():
        return None
    ref = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
    if ref is None:
        return None
    return sum(ref.get(n) != files.get(n) for n in set(ref) | set(files))


def record_digests(workload: str, seed: int, files: dict) -> None:
    data = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    data.setdefault(workload, {})[str(seed)] = files
    for w in data:
        data[w] = dict(sorted(data[w].items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------


def report(args, passes, traced, env, changed, failed_share) -> dict:
    """Print the human-readable tables; return the JSON result's metrics."""
    metrics, reported = end_to_end(passes)
    reported["failed_share"] = failed_share
    first = passes[0]["records"]
    print(f"locent benchmark: workload={args.workload} seed={args.seed} "
          f"passes={len(passes)} trace={args.trace}{' smoke' if args.smoke else ''}")
    print(f"{'job':26} {'family':8} {'time_s':>7} {'ref_s':>7} {'setup_s':>7} "
          f"{'rss_mb':>7} {'witnesses':>9}  status")
    for rec in first:
        print(f"{rec['job'].name:26} {rec['job'].family:8} {rec['time']:7.3f} "
              f"{rec['time'] * rec['scale']:7.3f} {rec.get('setup', float('nan')):7.3f} "
              f"{rec['rss_mb']:7.1f} {rec.get('witnesses', '-'):>9}  "
              f"{'; '.join(rec['failures']) or 'ok'}")
    for p in passes[1:] + ([traced] if traced else []):
        for rec in p["records"]:
            if rec["failures"]:
                print(f"FAILED {rec['job'].name} in {rec['dir'].parent.name}: "
                      f"{'; '.join(rec['failures'])}")
    cal = [c for p in passes for c in p["cal"]]
    print(f"calibration: median {statistics.median(cal):.5f} s over {len(cal)} slices "
          f"(reference {CAL_REF_S} s); times below are reference seconds")
    for name, value in {**metrics, **reported}.items():
        print(f"{name:24} {value:14.6f} {(END_TO_END | REPORTED)[name]}")
    print(f"{'cli.artifacts_changed':24} "
          f"{'no reference digests for this seed' if changed is None else changed}")
    print("environment " + json.dumps(env, sort_keys=True))
    if not traced:
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    layers = per_layer(traced, metrics["wall_s"], changed or 0)
    spans = sum(r["trace"]["spans"] for r in traced["records"] if r.get("trace"))
    print(f"per-layer metrics (traced pass, {spans} spans)")
    for name, value in layers.items():
        print(f"{name:40} {value:20.6f} {unit(name)}")
    return {k: {"value": v, "unit": unit(k)} for k, v in layers.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy sizes, for the benchmark's own tests")
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's artifact digests as the reference for its seed")
    args = ap.parse_args(argv)

    if not (SRC / "locent" / "cli.py").is_file():
        print(f"bench: no locent sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    budgets = sorted(k for k in os.environ if k.startswith("LOCENT_"))
    if budgets:
        print(f"bench: refusing to run with {', '.join(budgets)} set; budgets change outputs",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so running jobs get killed
    os.environ.update(PINNED_ENV)  # inherited by every job; set before numpy loads
    cpus = os.sched_getaffinity(0)
    # timed jobs and their calibration share one CPU, so they see the same speed
    os.sched_setaffinity(0, {min(cpus)})
    env = environment(args.seed, min(cpus))
    jobs = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(jobs, work / f"pass{len(passes)}", args.seed, args.smoke, False))
    traced = None
    if args.trace:
        traced = run_pass(jobs, work / "traced", args.seed, args.smoke, True)
        trace_additivity(traced)
    os.sched_setaffinity(0, cpus)
    check_outputs(passes + ([traced] if traced else []), work / "check")

    records = [rec for p in passes + ([traced] if traced else []) for rec in p["records"]]
    attempted = len(records)
    failed = sum(bool(rec["failures"]) for rec in records)
    files = {f"{rec['job'].name}/{name}": digest
             for rec in passes[0]["records"] for name, digest in rec["files"].items()}
    changed = None if args.smoke else artifacts_changed(args.workload, args.seed, files)
    metrics = report(args, passes, traced, env, changed, failed / attempted)

    correct = failed == 0
    if correct and args.record_digests and not args.smoke:
        record_digests(args.workload, args.seed, files)
    if correct:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):  # leave no empty scratch directory behind
            work.parent.rmdir()
    else:
        print(f"bench: failures recorded; outputs kept in {work}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
