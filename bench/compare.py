"""Compare benchmark results of two commits, metric by metric.

    python3 bench/compare.py parent.jsonl change.jsonl

Each file holds the last stdout line of bench/run.py runs, one per line,
all of one workload and trace setting (see README.md).  For every metric
the script prints each side's median and quartiles and the change of the
medians; for end-to-end metrics it also applies the bound in BENCHMARK.json:
"regressed" when the change's median is worse than the parent's by more
than the bound, "unresolved" when the parent's own quartile spread is wider
than the bound, otherwise "within bound".
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                for name, m in json.loads(line)["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
    return values


def quartiles(v: list[float]) -> tuple[float, float, float]:
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    regressed = False
    print(f"{'metric':40} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'change':>8}  verdict")
    for name in parent:
        if name not in change:
            continue
        pq, cq = quartiles(parent[name]), quartiles(change[name])
        rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        rule = rules.get(name, {})
        verdict = ""
        if "bound" in rule:
            worse = rel if rule["better"] == "lower" else -rel
            spread = (pq[2] - pq[0]) / pq[1] if pq[1] else 0.0
            if worse > rule["bound"]:
                verdict, regressed = "regressed", True
            elif spread > rule["bound"]:
                verdict = "unresolved"
            else:
                verdict = "within bound"
        print(f"{name:40} {pq[1]:12.6g} [{pq[0]:9.6g}, {pq[2]:9.6g}] "
              f"{cq[1]:12.6g} [{cq[0]:9.6g}, {cq[2]:9.6g}] {rel:+8.2%}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
