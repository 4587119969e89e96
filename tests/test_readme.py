"""The README against the code: its budget and cap constants, its CLI examples
and its class-file example."""

import ast
import importlib
import inspect
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("geometry", "packing", "multisets", "chains", "doubling", "measures", "erm",
           "processes", "classes")


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end]


def _code_blocks(title: str) -> list[str]:
    return re.findall(r"```[a-z]*\n(.*?)```", _section(title), re.S)


def _module_constants(name: str) -> set[str]:
    """Public upper-case names the module itself assigns at top level."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"locent.{name}")))
    targets = [t for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
    return {t.id for t in targets
            if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)}


def test_exactness_section_names_every_constant():
    # a bare NAME belongs to the last `locent.<module>` named before it, a
    # `<module>.NAME` to that module; the first mention of a name counts
    named, module = {}, None
    for token in re.findall(r"`([^`]+)`", _section("Exactness and budgets")):
        if m := re.fullmatch(r"locent\.(\w+)", token):
            module = m.group(1)
        elif m := re.fullmatch(r"(?:(\w+)\.)?([A-Z][A-Z0-9_]*)", token):
            named.setdefault(m.group(2), m.group(1) or module)
    defined = {const: mod for mod in MODULES for const in _module_constants(mod)}
    assert named == defined


def test_cli_examples_name_real_subcommands_and_options():
    from locent.cli import _OPTION_DEFAULTS
    lines = _code_blocks("CLI")[0].splitlines()
    subs = [line.split()[1] for line in lines]
    assert sorted(subs) == sorted([*_OPTION_DEFAULTS, "replay"])
    for line in lines:
        locent, sub, *words = line.split()
        assert locent == "locent"
        if sub == "replay":  # an artifact path, then --out and its path
            assert len(words) == 3 and not words[0].startswith("-") and words[1] == "--out"
            continue
        flags, values = words[0::2], words[1::2]
        assert len(flags) == len(values) and not any(v.startswith("--") for v in values)
        options = {"--config"} | {"--" + key.replace("_", "-") for key in _OPTION_DEFAULTS[sub]}
        assert set(flags) <= options, (sub, set(flags) - options)


def test_class_file_example_is_what_save_class_writes(tmp_path):
    from locent.classes import save_class, threshold_class
    path = tmp_path / "thresholds3.txt"
    save_class(threshold_class(3), path)
    assert _code_blocks("Class file format")[0] == path.read_text(encoding="utf-8")
