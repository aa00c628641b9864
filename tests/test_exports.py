"""Every name a module lists in ``__all__`` exists in that module, so a stale
entry fails here rather than at ``from causal_reduce.<module> import *``; a
module's ``__all__`` is what the package exports, so the package's public
names are the union of those lists, each name listed once; and
every module-level private name is read somewhere in the package, so a
helper whose last caller went fails here rather than lingering."""

import ast
import importlib
import pkgutil
import types
from collections import Counter
from pathlib import Path

import pytest

import causal_reduce

MODULES = sorted(m.name for m in pkgutil.iter_modules(causal_reduce.__path__))


def test_modules_found():
    assert {"bn", "graph", "taxonomy", "formula", "functionals"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"causal_reduce.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_exports_each_modules_all_once():
    listed = Counter(
        n
        for name in MODULES
        for n in getattr(importlib.import_module(f"causal_reduce.{name}"), "__all__", ())
    )
    assert [n for n in listed if not hasattr(causal_reduce, n)] == []
    public = [
        n
        for n in dir(causal_reduce)
        if not n.startswith("_") and not isinstance(getattr(causal_reduce, n), types.ModuleType)
    ]
    assert [n for n in public if listed[n] != 1] == []


def _private_names_and_uses() -> tuple[dict[str, list[str]], Counter]:
    """Each module-level private name (``_x``, not a dunder) of the package
    with the modules that define it, and how often every name is read:
    loaded, taken as an attribute or imported."""
    defined, used = {}, Counter()
    for path in sorted(Path(causal_reduce.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.setdefault(name, []).append(path.stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return defined, used


def test_no_orphaned_private_name():
    defined, used = _private_names_and_uses()
    assert defined
    orphans = [f"{'/'.join(mods)}.{name}" for name, mods in defined.items() if not used[name]]
    assert orphans == []
