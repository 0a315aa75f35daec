"""Checks over the project's own source files."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def rebound_names(path: Path) -> list[str]:
    """Top-level function and class names that ``path`` defines more than
    once: the later definition silently replaces the earlier one, and pytest
    collects only the last of two same-named tests."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    defs = Counter(node.name for node in body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    return sorted(name for name, count in defs.items() if count > 1)


def test_no_module_defines_a_top_level_name_twice():
    modules = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))
    assert len(modules) > 20
    rebound = {str(p.relative_to(ROOT)): names for p in modules if (names := rebound_names(p))}
    assert rebound == {}
