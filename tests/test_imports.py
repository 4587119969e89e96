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
    "doubling_dimension(threshold_class(8), DomainDistribution.uniform(8), 0.2)",
], ids=["measures", "fixed-point", "verify-lemmas", "doubling"])
def test_jobs_leave_numpy_ma_unloaded(tmp_path, job):
    # numpy 2.x imports numpy.ma (about 13 ms) in a plain np.unique call
    out = tmp_path / "out.json"
    if isinstance(job, str):
        code = ("from locent.classes import DomainDistribution, threshold_class\n"
                f"from locent.geometry import doubling_dimension\nassert {job}.exact\n")
    else:
        code = ("from locent.cli import dispatch\n"
                f"assert dispatch({job + ['--out', str(out)]!r}) == 0\n")
    done = _run(code + "import sys\nprint('numpy.ma' in sys.modules)")
    assert isinstance(job, str) or out.exists()
    assert done.splitlines()[-1] == "False"


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
