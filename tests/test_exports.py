"""Every name a module lists in ``__all__`` exists in that module, so a stale
entry fails here rather than at ``from causal_reduce.<module> import *``."""

import importlib
import pkgutil

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
