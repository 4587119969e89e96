"""The README's list of budget and cap constants against the modules."""

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
