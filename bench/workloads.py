"""The three job mixes the benchmark runs, one job in flight at a time.

Each job is either a `locent` CLI invocation or a short call to a library
entry point listed in the README, for operations the CLI has no subcommand
for.  Jobs marked seeded take a --seed derived from the workload seed;
the others are deterministic functions of their arguments.  `smoke` holds
the toy-size overrides the benchmark's own tests run with.

The mixes reproduce, as user jobs, the hot spots of the slowest acceptance
criteria: the threshold fixed points and the ERM rate sweep (fixed-points),
separator enumeration and the exact searches (exact-certificates), and
the trial loops and exact sign enumeration (learning).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

# end-to-end time families; every job belongs to exactly one
FAMILIES = ("entropy", "measures", "erm", "lemmas")


@dataclass(frozen=True)
class Job:
    name: str
    family: str
    sub: str | None = None          # CLI subcommand, or None for a library call
    opts: dict = field(default_factory=dict)
    smoke: dict = field(default_factory=dict)
    seeded: bool = False

    @property
    def artifact(self) -> str:
        return "artifact.csv" if self.sub in ("erm-run", "erm-sweep") else "artifact.json"


def _cli(name, family, sub, smoke=None, seeded=False, **opts) -> Job:
    return Job(name, family, sub, opts, smoke or {}, seeded)


def _lib(name, family, smoke=None, seeded=False, **call) -> Job:
    return Job(name, family, None, call, smoke or {}, seeded)


def _thr(points: int) -> dict:
    return {"generator": "thresholds", "points": points}


WORKLOADS = {
    # heuristic entropy at scale: greedy packing, the local profile, the
    # multiset hill climb and the 2049-row Hamming Gram dominate
    "fixed-points": [
        _cli("loc-thr64-h0.5", "entropy", "fixed-point", seeded=True,
             generator="thresholds", points=64, kind="loc", h=0.5, n=64, search="auto",
             smoke={"points": 24, "n": 24}),
        _cli("loc-thr64-h0.125", "entropy", "fixed-point", seeded=True,
             generator="thresholds", points=64, kind="loc", h=0.125, n=64,
             search="hill_climb", smoke={"points": 24, "n": 24}),
        _cli("loc-thr1024-h1", "entropy", "fixed-point", seeded=True,
             generator="thresholds", points=1024, kind="loc", h=1.0, n=1024,
             search="hill_climb", smoke={"points": 32, "n": 32}),
        _cli("star-thr2048-c0.5", "entropy", "fixed-point", seeded=True,
             generator="thresholds", points=2048, kind="star", c=0.5, n=2048,
             search="hill_climb", smoke={"points": 64, "n": 64}),
        _cli("loc-circle10-h1", "entropy", "fixed-point", seeded=True,
             generator="linsep-circle", points=10, kind="loc", h=1.0, n=10,
             smoke={"points": 6, "n": 6}),
        _cli("family-f1-d2-s6", "entropy", "lower-bound-family", seeded=True,
             generator="f1", d=2, s=6, h=0.5, n_budget=64,
             smoke={"s": 4, "n_budget": 16}),
        _cli("sweep-thr", "erm", "erm-sweep", seeded=True,
             generator="thresholds", h_grid="1.0,0.5", n_grid="16,32", trials=200,
             smoke={"n_grid": "8,16", "trials": 20}),
    ],
    # the geometry layer's exact side: exhaustive multisets, branch and bound
    # packing and set cover, separator enumeration, VC and star searches
    "exact-certificates": [
        _cli("measures-circle12", "measures", "measures",
             generator="linsep-circle", points=12, smoke={"points": 6}),
        _cli("measures-f1-d3-s12", "measures", "measures",
             generator="f1", d=3, s=12, smoke={"s": 5}),
        _cli("measures-f2-d3-s8", "measures", "measures",
             generator="f2", d=3, s=8, smoke={"s": 5}),
        _cli("measures-f3-d2-s6", "measures", "measures",
             generator="f3", d=2, s=6, grid=4, smoke={"grid": 2}),
        _cli("loc-f1-exact", "entropy", "fixed-point", seeded=True,
             generator="f1", d=2, s=6, kind="loc", h=0.5, n=6, search="exact",
             smoke={"s": 4, "n": 3}),
        _cli("packing-f1-local", "entropy", "packing", seeded=True,
             generator="f1", d=2, s=6, kind="local", gamma=2, n=6,
             smoke={"s": 4, "n": 3}),
        _cli("sandwich-thr32", "entropy", "sandwich", seeded=True,
             generator="thresholds", points=32, smoke={"points": 8, "n": 8}),
        # the branch and bound runs out of its node budget on this chain
        _lib("max-packing-chain101", "entropy", fn="max_packing", cls=_thr(100), eps=1,
             smoke={"cls": _thr(40)}),
        _lib("doubling-f1-d2-s10", "entropy", fn="doubling_dimension",
             cls={"generator": "f1", "d": 2, "s": 10}, gamma_frac=0.1,
             smoke={"cls": {"generator": "f1", "d": 2, "s": 4}}),
        _lib("doubling-thr64", "entropy", fn="doubling_dimension", cls=_thr(64),
             gamma_frac=0.05, smoke={"cls": _thr(8)}),
    ],
    # trial loops (sample, erm, version space) and exact sign enumeration
    "learning": [
        *(_cli(f"erm-thr64-{policy}", "erm", "erm-run", seeded=True,
               generator="thresholds", points=64, h=0.5, n=64, trials=3_000, policy=policy,
               smoke={"points": 8, "n": 8, "trials": 20})
          for policy in ("first_index", "seeded_random", "pessimistic")),
        _cli("erm-f1-d2-s16", "erm", "erm-run", seeded=True,
             generator="f1", d=2, s=16, h=0.5, n=64, trials=2_000, policy="pessimistic",
             smoke={"s": 4, "n": 8, "trials": 20}),
        _cli("star-theorem-f1-d2-s32", "erm", "star-theorem", seeded=True,
             generator="f1", d=2, s=32, n=64, trials=2_000,
             smoke={"s": 4, "n": 8, "trials": 20}),
        _lib("version-space-thr32", "erm", seeded=True, fn="version_space_disagreement",
             cls=_thr(32), n=16, trials=3_000, smoke={"cls": _thr(8), "n": 4, "trials": 20}),
        # n <= 16 enumerates all 2^n signs exactly; n = 24 is Monte Carlo
        *(_cli(f"lemmas-thr{n}", "lemmas", "verify-lemmas", seeded=True,
               generator="thresholds", points=n, n=n, trials=100,
               smoke={"points": 6, "n": 6})
          for n in (12, 16, 24)),
    ],
}


def job_seed(seed: int, index: int) -> int:
    """Seed of the index-th job of a workload run at `seed`."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2**31


def resolve(job: Job, index: int, seed: int, smoke: bool) -> dict:
    """The job's options with smoke overrides and its derived seed applied."""
    opts = {**job.opts, **(job.smoke if smoke else {})}
    if job.seeded:
        opts["seed"] = job_seed(seed, index)
    return opts


def cli_argv(job: Job, opts: dict, out: str) -> list[str]:
    argv = [job.sub]
    for key, value in opts.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv + ["--out", out]
