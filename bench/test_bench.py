"""Smoke tests of the benchmark itself: toy sizes, every metric, every check.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import FAMILIES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric_and_passes_its_checks(workload, trace):
    out = _run("--workload", workload, "--seed", "3", "--seconds", "0",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    # the end-to-end table also names the failure share and each job family present
    families = {job.family for job in WORKLOADS[workload]}
    for name, unit in [("failed_share", "share")] + [(f"{f}_s", "s") for f in families]:
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines), name
    if not trace:
        absent = {f"{f}_s" for f in FAMILIES} - {f"{f}_s" for f in families}
        assert not any(line.split()[:1] == [name] for name in absent for line in lines)
    assert "FAILED" not in out.stdout


def test_refuses_to_run_with_a_budget_override():
    out = _run("--workload", "learning", "--smoke",
               env={**os.environ, "LOCENT_RESTARTS": "1"})
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("--workload", "learning", "--seed", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
