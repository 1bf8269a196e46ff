"""Every chunkreader module's public list names things that exist, and
every name the autodiff core exports is used outside it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import chunkreader
from chunkreader import numerics

MODULES = sorted(info.name for info in pkgutil.iter_modules(chunkreader.__path__))
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_and_star_import_succeeds(name):
    module = importlib.import_module(f"chunkreader.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from chunkreader.{name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def numerics_names_used(tree: ast.AST) -> set[str]:
    """Names a module takes from numerics: `from ...numerics import x`, or
    `alias.x` where the alias is bound to the numerics module."""
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            is_numerics = (node.module or "").split(".")[-1] == "numerics"
            for alias in node.names:
                if is_numerics:
                    used.add(alias.name)
                elif alias.name == "numerics":
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[-1] == "numerics" and alias.asname:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                used.add(node.attr)
    return used


def test_every_numerics_name_has_a_caller_outside_numerics():
    # the autodiff core carries only what the model or the benchmark runs;
    # ops that only tests need live in tests/reference_ops.py
    used = set()
    for folder in (ROOT / "src" / "chunkreader", ROOT / "bench"):
        for path in sorted(folder.rglob("*.py")):
            if path.name != "numerics.py":
                used |= numerics_names_used(ast.parse(path.read_text(encoding="utf-8")))
    assert [name for name in numerics.__all__ if name not in used] == []
