"""Benchmark of the causal_reduce pipeline: graph, exact and data layers.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload reduce_dags --seed 1 --seconds 25 --trace 0

One run builds the workload's inputs from the seed, times whole rounds of
its items for about ``--seconds`` seconds in this single process, checks
every output outside the timed region and prints one JSON object as its
last line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports per-layer metrics from spans recorded around the program's public
functions (see README.md).  The package is imported from ``src/`` next to
this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import NamedTuple

# One BLAS thread: each workload is one process with no worker threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PACKAGE = "causal_reduce"
# Set-ups timed before and again after the timed loop: their median spans
# the whole run, not one moment of it.
SETUP_REPEATS = 5
REFERENCE_LOOPS = 3


def import_program():
    """Import the package afresh from ``src/``; refuse any other copy."""
    for name in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cr = importlib.import_module(PACKAGE)
    if os.path.dirname(os.path.dirname(os.path.abspath(cr.__file__))) != SRC:
        raise ImportError(f"{PACKAGE} was imported from {cr.__file__}, not from {SRC}")
    return cr


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop; shows a slowed machine.
    It scales no metric."""
    times = []
    for _ in range(REFERENCE_LOOPS):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def setup(workload, seed: int):
    """Import the program and build the inputs, SETUP_REPEATS times; returns
    the last import and the set-up times in seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cr = import_program()
        workload.build(cr, seed)
        times.append(time.perf_counter() - start)
    return cr, times


class Rounds(NamedTuple):
    item_s: list[float]  # time of every item run
    first: list  # the first round's outputs
    rounds: int
    failed: int  # failed operations, all rounds
    differ: int  # later outputs that differ from the first round's
    wall: float


def run_rounds(cr, workload, seconds: float | None, rounds: int | None = None) -> Rounds:
    """Run whole rounds over the workload's items, for exactly ``rounds``
    rounds or until the round boundary nearest to ``seconds``.  Only the
    first round's outputs are kept, so memory does not grow with the run;
    later outputs are compared with them outside each item's timer."""
    item_s: list[float] = []
    first: list = []
    done = failed = differ = 0
    start = time.perf_counter()
    while True:
        for i, item in enumerate(workload.items):
            t0 = time.perf_counter()
            out = workload.run_item(cr, item)
            item_s.append(time.perf_counter() - t0)
            failed += workload.failed(i, out)
            if not done:
                first.append(out)
            elif workload.fingerprint(out) != workload.fingerprint(first[i]):
                differ += 1
        done += 1
        wall = time.perf_counter() - start
        if rounds is not None:
            if done >= rounds:
                return Rounds(item_s, first, done, failed, differ, wall)
        elif wall + wall / done / 2 >= seconds:
            return Rounds(item_s, first, done, failed, differ, wall)


def check_outputs(cr, workload, run: Rounds) -> tuple[int, list[str]]:
    """Operations attempted, and the problems found in the first round's
    outputs or in a later round that did not repeat them."""
    problems: list[str] = []
    for i, out in enumerate(run.first):
        problems += [f"item {i}: {p}" for p in workload.check(cr, i, out)]
    if run.differ:
        problems.append(f"{run.differ} outputs differ from the first round's")
    return run.rounds * len(run.first) * workload.ops_per_item, problems


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
    }


def item_p50(item_s: list[float], n_items: int) -> float:
    """Median over the batch's items of each item's mean time across the
    rounds.  The rounds are spread over the whole run, so each item's mean
    averages the machine's fast and slow phases as ``items_per_s`` does; a
    median pooled over every single run flips between the two."""
    return statistics.median(statistics.fmean(item_s[i::n_items]) for i in range(n_items))


def end_to_end(cr, workload, seconds: float, setup_before: list[float], seed: int):
    workload.run_item(cr, workload.items[0])  # warm-up, untimed
    run = run_rounds(cr, workload, seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, problems = check_outputs(cr, workload, run)
    _, setup_after = setup(workload, seed)
    metrics = {
        "items_per_s": (len(run.item_s) / sum(run.item_s), "1/s"),
        "item_p50_ms": (item_p50(run.item_s, len(workload.items)) * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
        "setup_s": (statistics.median(setup_before + setup_after), "s"),
    }
    extra = {"items": len(run.item_s), "rounds": run.rounds, "wall_s": run.wall}
    return metrics, attempted, run.failed, problems, extra


# Per-layer metrics of the traced run: (name, unit, kind, span names).
# "count" reads the tracer's counters (each span name counts its calls),
# "ms" sums inclusive time and "self_ms" sums self time.
PER_LAYER = (
    ("graph.dag_builds", "count", "count", ("graph.dag_builds",)),
    ("graph.parse_graph_ms", "ms", "ms", ("graph.parse_graph",)),
    ("graph.d_separated_calls", "count", "count", ("graph.d_separated",)),
    ("graph.d_separated_ms", "ms", "ms", ("graph.d_separated",)),
    ("graph.has_causal_path_calls", "count", "count", ("graph.has_causal_path",)),
    ("taxonomy.classify_calls", "count", "count", ("taxonomy.classify",)),
    ("taxonomy.classify_ms", "ms", "self_ms", ("taxonomy.classify",)),
    ("taxonomy.minimal_dseparator_ms", "ms", "ms", ("taxonomy.minimal_dseparator_within",)),
    ("criteria.criterion_ms", "ms", "ms", ("criteria.w_criterion", "criteria.m_criterion")),
    ("reduction.project_ms", "ms", "self_ms", ("reduction.project_vertex", "reduction.project_out_ni")),
    ("reduction.reduce_self_ms", "ms", "self_ms", ("reduction.reduce",)),
    ("formula.render_ms", "ms", "ms", ("formula.render",)),
    ("formula.evaluate_ms", "ms", "ms", ("formula.evaluate",)),
    ("bn.joint_table_calls", "count", "count", ("bn.joint_table",)),
    ("bn.joint_cells", "count", "count", ("bn.joint_cells",)),
    ("bn.joint_table_ms", "ms", "ms", ("bn.joint_table",)),
    ("bn.sample_ms", "ms", "ms", ("bn.sample",)),
    ("bn.rows_sampled", "count", "count", ("bn.rows_sampled",)),
    ("functionals.g_functional_exact_ms", "ms", "ms", ("functionals.g_functional_exact",)),
    ("functionals.g_functional_for_graph_ms", "ms", "ms", ("functionals.g_functional_for_graph",)),
    ("functionals.adjustment_exact_ms", "ms", "ms", ("functionals.adjustment_exact",)),
    ("functionals.eif_variance_ms", "ms", "ms", ("functionals.eif_variance",)),
    ("functionals.eif_variance_for_graph_ms", "ms", "ms", ("functionals.eif_variance_for_graph",)),
    ("functionals.plugin_g_ms", "ms", "ms", ("functionals.plugin_g",)),
    ("functionals.plugin_adjustment_ms", "ms", "ms", ("functionals.plugin_adjustment",)),
    ("simulate.run_simulation_self_ms", "ms", "self_ms", ("simulate.run_simulation",)),
)


def per_layer(cr, workload, seconds: float, seed: int):
    """Untraced rounds for half the time, then as many traced rounds.  Layer
    metrics are per round, one pass over the batch; ``bn.random_law_ms`` is
    per set-up, from building the inputs once more under the tracer."""
    from tracer import Tracer

    workload.run_item(cr, workload.items[0])  # warm-up, untimed
    plain = run_rounds(cr, workload, seconds / 2)
    rounds = plain.rounds
    tracer = Tracer()
    tracer.install(PACKAGE)
    try:
        workload.build(cr, seed)
        random_law_ms = tracer.totals()[0].get("bn.random_law", 0.0)
        tracer.reset()
        traced = run_rounds(cr, workload, None, rounds=rounds)
    finally:
        tracer.uninstall()
    inclusive, own = tracer.totals()
    sums = {"count": tracer.counts, "ms": inclusive, "self_ms": own}
    metrics = {
        name: (sum(sums[kind].get(s, 0) for s in spans) / rounds, unit)
        for name, unit, kind, spans in PER_LAYER
    }
    metrics["bn.random_law_ms"] = (random_law_ms, "ms")
    plain_s, traced_s = sum(plain.item_s), sum(traced.item_s)
    metrics["trace.overhead_pct"] = ((traced_s - plain_s) / plain_s * 100.0, "%")
    attempted, problems = check_outputs(cr, workload, traced)
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"spans-{workload.name}-seed{seed}.txt")
    tracer.write(trace_path)
    extra = {"rounds": rounds, "spans": len(tracer.spans), "span_file": os.path.relpath(trace_path, ROOT)}
    return metrics, attempted, traced.failed, problems, extra


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS, make

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = make(args.workload)
    ref_before = reference_loop_ms()
    cr, setup_before = setup(workload, args.seed)
    if args.trace:
        metrics, attempted, failed, problems, extra = per_layer(cr, workload, args.seconds, args.seed)
    else:
        metrics, attempted, failed, problems, extra = end_to_end(
            cr, workload, args.seconds, setup_before, args.seed
        )
    ref_after = reference_loop_ms()

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **machine_info(),
        "reference_loop_ms": {"before": ref_before, "after": ref_after},
        **extra,
        "problems": problems[:20],
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=2)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
