"""The benchmark's tracer wraps program functions by name, so each name it
lists must resolve in the package; a rename fails here rather than in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    # loaded by path: bench/ is not a package, and the tracer imports only
    # the standard library
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_spanned_function_resolves():
    tracer = load_tracer()
    assert tracer.SPANNED
    missing = [
        f"{module}.{name}"
        for module, name in tracer.SPANNED
        if not callable(getattr(importlib.import_module(f"causal_reduce.{module}"), name, None))
    ]
    assert missing == []

