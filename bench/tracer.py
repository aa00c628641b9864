"""Spans and counts recorded around the program's public functions.

``Tracer.install`` replaces each named function with a wrapper on every
module attribute that refers to it (``reduction.classify`` as well as
``taxonomy.classify``), so no program file changes; ``uninstall`` puts the
originals back.  A span is ``(name, start_ns, end_ns, parent)``; spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter

# (module, function) pairs that get a span; the span's name is
# "<module>.<function>".
SPANNED = (
    ("graph", "parse_graph"),
    ("graph", "d_separated"),
    ("graph", "has_causal_path"),
    ("taxonomy", "classify"),
    ("taxonomy", "minimal_dseparator_within"),
    ("criteria", "w_criterion"),
    ("criteria", "m_criterion"),
    ("reduction", "reduce"),
    ("reduction", "project_out_ni"),
    ("reduction", "project_vertex"),
    ("formula", "render"),
    ("formula", "evaluate"),
    ("bn", "joint_table"),
    ("bn", "random_law"),
    ("bn", "sample"),
    ("functionals", "g_functional_exact"),
    ("functionals", "g_functional_for_graph"),
    ("functionals", "adjustment_exact"),
    ("functionals", "eif_variance"),
    ("functionals", "eif_variance_for_graph"),
    ("functionals", "plugin_g"),
    ("functionals", "plugin_adjustment"),
    ("simulate", "run_simulation"),
)


def _joint_cells(bn, *_args, **_kw) -> int:
    return math.prod(bn.state_shape())


def _rows(_bn, n, *_args, **_kw) -> int:
    return int(n)


# Extra counters recorded at a span's boundary: span name -> (counter, fn of
# the call's arguments).
COUNTERS = {
    "bn.joint_table": ("bn.joint_cells", _joint_cells),
    "bn.sample": ("bn.rows_sampled", _rows),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        extra = COUNTERS.get(name)

        def traced(*args, **kw):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            counts[name] += 1
            if extra is not None:
                counts[extra[0]] += extra[1](*args, **kw)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kw)
            finally:
                spans[sid] = (name, start, time.perf_counter_ns(), parent)
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str) -> None:
        modules = [
            m for k, m in sys.modules.items()
            if m is not None and (k == package or k.startswith(package + "."))
        ]
        for mod_name, fn_name in SPANNED:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, value))
                        setattr(m, attr, wrapper)
        dag = sys.modules[f"{package}.graph"].Dag
        init = dag.__init__
        counts = self.counts

        def counted_init(self_, *args, **kw):
            counts["graph.dag_builds"] += 1
            init(self_, *args, **kw)

        self._restore.append((dag, "__init__", init))
        dag.__init__ = counted_init

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self milliseconds per span name.  Self time is a
        span's duration minus the durations of its direct children."""
        inclusive: Counter[str] = Counter()
        child: Counter[int] = Counter()
        for span in self.spans:
            name, start, end, parent = span
            inclusive[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Counter[str] = Counter()
        for sid, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[sid]
        ms = 1e-6
        return (
            {k: v * ms for k, v in inclusive.items()},
            {k: v * ms for k, v in own.items()},
        )

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def write(self, path: str) -> None:
        """One line per span: id, parent, name, start and end in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{sid} {parent} {name} {start} {end}\n")
