"""Which locent modules an entry point loads, read off sys.modules in a fresh
interpreter, and the lazy re-exports of the package."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _run(code: str) -> str:
    """Run code in a fresh interpreter with src/ on the path; its stdout."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded(code: str) -> set[str]:
    """The locent submodules loaded once code has run."""
    out = _run(code + "\nimport sys\n"
               "print(*sorted(m for m in sys.modules if m.startswith('locent.')))")
    return {name.removeprefix("locent.") for name in out.splitlines()[-1].split()}


def _readme_entry_points() -> list[str]:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Library entry points\n")
    block = re.search(r"from locent import \(([^)]*)\)", text[start:]).group(1)
    return [name.strip() for name in block.split(",") if name.strip()]


def test_cli_import_loads_only_its_own_modules():
    assert _loaded("import locent.cli") == {"cli", "classes", "util"}


def test_measures_subcommand_skips_the_entropy_and_learning_stack(tmp_path):
    out = tmp_path / "measures.json"
    loaded = _loaded("from locent.cli import dispatch\n"
                     "assert dispatch(['measures', '--points', '6', '--growth-max', '2', "
                     f"'--out', {str(out)!r}]) == 0")
    assert out.exists()
    assert loaded.isdisjoint({"geometry", "erm", "experiments", "processes", "seeding"})


# the modules the entropy fixed points compile
FIXED_POINT_MODULES = {"geometry", "multisets", "chains", "packing"}


@pytest.mark.parametrize("call, own", [
    ("from locent import max_packing\n"
     "assert max_packing(threshold_class(8).patterns, 1).exact", {"packing"}),
    ("from locent import doubling_dimension\n"
     "assert doubling_dimension(threshold_class(8), DomainDistribution.uniform(8), 0.2).exact",
     {"doubling"}),
], ids=["max_packing", "doubling_dimension"])
def test_library_calls_load_only_their_module(call, own):
    loaded = _loaded("from locent.classes import DomainDistribution, threshold_class\n" + call)
    assert own <= loaded
    assert loaded.isdisjoint(FIXED_POINT_MODULES - own)


def test_chain_route_fixed_point_loads_no_seeding(tmp_path):
    # thresholds take the chain route; only the multiset hill climb draws
    out = tmp_path / "fp.json"
    loaded = _loaded("from locent.cli import dispatch\n"
                     "assert dispatch(['fixed-point', '--generator', 'thresholds', '--points', '12', "
                     f"'--n', '12', '--h', '0.5', '--out', {str(out)!r}]) == 0")
    assert out.exists()
    assert "chains" in loaded and "seeding" not in loaded


def test_star_theorem_loads_no_fixed_point_module(tmp_path):
    out = tmp_path / "star.json"
    loaded = _loaded("from locent.cli import dispatch\n"
                     "assert dispatch(['star-theorem', '--s', '6', '--n', '8', '--trials', '5', "
                     f"'--out', {str(out)!r}]) == 0")
    assert out.exists()
    assert loaded.isdisjoint(FIXED_POINT_MODULES | {"doubling"})


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_importing_every_module_after_the_cli_adds_under_1_mb_to_the_peak():
    # Without cached bytecode each import compiles its module, and a large
    # compile sets a job's peak resident set.  numpy is imported first, so the
    # reading starts past numpy and the CLI's own compile, which leaves its
    # freed memory for the compiles after it.
    names = sorted(path.stem for path in (ROOT / "src" / "locent").glob("*.py")
                   if path.stem not in ("__init__", "cli"))
    out = _run("import importlib\nimport numpy\nimport locent.cli\n"
               "def hwm():\n"
               "    with open('/proc/self/status') as fh:\n"
               "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM'))\n"
               f"before = hwm()\nfor name in {names!r}:\n"
               "    importlib.import_module('locent.' + name)\n"
               "print(hwm() - before)")
    assert int(out) < 1024  # kB


def test_circle_separators_load_no_fractions(tmp_path):
    # the separator enumeration takes exact cross products on Python ints
    out = tmp_path / "measures.json"
    done = _run("from locent.cli import dispatch\n"
                "assert dispatch(['measures', '--generator', 'linsep-circle', '--points', '6', "
                f"'--out', {str(out)!r}]) == 0\n"
                "import sys\nprint('fractions' in sys.modules, 'decimal' in sys.modules)")
    assert done.splitlines()[-1] == "False False"


def test_readme_entry_points_resolve_and_are_listed():
    names = _readme_entry_points()
    assert len(names) > 20
    out = _run(f"from locent import {', '.join(names)}\n"
               "import locent\n"
               f"print(*[n for n in {names!r} if n not in dir(locent)])")
    assert out.strip() == ""


@pytest.mark.parametrize("code", [
    "import locent.erm\nfrom locent import erm",
    "from locent import erm\nimport locent.erm",
    "import locent.cli, locent.experiments\nfrom locent import erm",
])
def test_erm_names_the_function_in_either_import_order(code):
    out = _run(code + "\nimport locent, sys, types\n"
               "assert not isinstance(erm, types.ModuleType)\n"
               "assert locent.erm is erm is sys.modules['locent.erm'].erm\n"
               "print('ok')")
    assert out.strip() == "ok"


def test_unknown_attribute_raises_attribute_error():
    out = _run("import locent\n"
               "try:\n    locent.no_such_name\nexcept AttributeError as exc:\n    print(exc)\n"
               "print(hasattr(locent, 'no_such_name'))")
    assert out.splitlines() == ["module 'locent' has no attribute 'no_such_name'", "False"]


@pytest.mark.parametrize("job", [
    ["measures", "--points", "6", "--growth-max", "2"],
    ["fixed-point", "--generator", "thresholds", "--points", "12", "--n", "12", "--h", "0.5"],
    ["verify-lemmas", "--points", "6", "--n", "6", "--trials", "100"],
    ["erm-run", "--points", "8", "--n", "8", "--trials", "20"],
    ["star-theorem", "--s", "6", "--n", "8", "--trials", "5"],
    "doubling_dimension(threshold_class(8), DomainDistribution.uniform(8), 0.2)",
], ids=["measures", "fixed-point", "verify-lemmas", "erm-run", "star-theorem", "doubling"])
def test_jobs_leave_numpy_ma_unloaded(tmp_path, job):
    # numpy 2.x imports numpy.ma (about 13 ms) in a plain np.unique call, and
    # no record is a dataclass, whose decorator costs about 1 ms per class
    out = tmp_path / "out.json"
    if isinstance(job, str):
        code = ("from locent.classes import DomainDistribution, threshold_class\n"
                f"from locent.doubling import doubling_dimension\nassert {job}.exact\n")
    else:
        code = ("from locent.cli import dispatch\n"
                f"assert dispatch({job + ['--out', str(out)]!r}) == 0\n")
    done = _run(code + "import sys\nprint('numpy.ma' in sys.modules, 'dataclasses' in sys.modules)")
    assert isinstance(job, str) or out.exists()
    assert done.splitlines()[-1] == "False False"


def test_cli_import_freezes_the_heap():
    assert int(_run("import gc\nimport locent.cli\nprint(gc.get_freeze_count())")) > 0


def test_library_calls_leave_the_gc_unfrozen():
    out = _run("import gc\nimport locent\n"
               "from locent import gamma_loc, erm, max_packing\n"
               "from locent.classes import sample, threshold_instance\n"
               "inst = threshold_instance(8, 0.5)\n"
               "gamma_loc(inst.cls, 0.5, 0.5, 8)\n"
               "erm(inst.cls, sample(inst, 8, 0), 'first_index')\n"
               "max_packing(inst.cls.patterns, 1)\n"
               "print(gc.get_freeze_count())")
    assert int(out) == 0


def test_src_calls_np_unique_with_counts():
    # a plain np.unique call is what loads numpy.ma; util.distinct gives the
    # same sorted values without it
    plain = []
    for path in sorted((ROOT / "src" / "locent").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unique"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                    and not {kw.arg for kw in node.keywords}
                    & {"return_counts", "return_index", "return_inverse"}):
                plain.append(f"{path.name}:{node.lineno}")
    assert plain == []


def test_src_names_no_numpy_random():
    # every draw comes off seeding's counter-based streams
    found = [f"{path.name}:{i}" for path in sorted((ROOT / "src" / "locent").glob("*.py"))
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if re.search(r"\b(np|numpy)\.random\b", line)]
    assert found == []


@pytest.mark.parametrize("job", [
    *(["erm-run", "--points", "8", "--n", "8", "--trials", "20", "--policy", policy]
      for policy in ("first_index", "seeded_random", "pessimistic")),
    ["erm-sweep", "--h-grid", "1.0,0.5", "--n-grid", "4,8", "--trials", "10"],
    ["star-theorem", "--s", "6", "--n", "8", "--trials", "5"],
    ["lower-bound-family", "--s", "4", "--n-budget", "16", "--trials", "2"],
    ["verify-lemmas", "--points", "6", "--n", "6", "--trials", "100"],
    ["verify-lemmas", "--points", "6", "--n", "18", "--trials", "100"],
    ["fixed-point", "--generator", "f1", "--s", "4", "--n", "6", "--search", "hill_climb"],
    "version_space_disagreement(threshold_instance(8, 1.0), 4, 20, 0)",
    "offset_rademacher_sup(np.ones((2, 20)), 0.5, exact=False, reps=10)",
    "sudakov_check(np.eye(20), trials=10)",
], ids=["erm-run-first_index", "erm-run-seeded_random", "erm-run-pessimistic", "erm-sweep",
        "star-theorem", "lower-bound-family", "verify-lemmas-exact", "verify-lemmas-monte-carlo",
        "fixed-point-hill-climb", "version-space", "offset-rademacher", "sudakov"])
def test_drawing_jobs_leave_numpy_random_unloaded(tmp_path, job):
    out = tmp_path / "out"
    if isinstance(job, str):
        code = ("import numpy as np\nfrom locent.classes import threshold_instance\n"
                "from locent.erm import version_space_disagreement\n"
                "from locent.processes import offset_rademacher_sup, sudakov_check\n"
                f"{job}\n")
    else:
        code = ("from locent.cli import dispatch\n"
                f"assert dispatch({job + ['--out', str(out)]!r}) == 0\n")
    done = _run(code + "import sys\n"
                "print('numpy.random' in sys.modules, 'locent.seeding' in sys.modules)")
    assert isinstance(job, str) or out.exists()
    assert done.splitlines()[-1] == "False True"
