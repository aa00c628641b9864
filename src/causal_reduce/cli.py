"""Command-line surface: ``causal-reduce <subcommand>``.

Exit codes: 0 on success, 2 on input errors (files, parsing, flags, a
size too large to allocate), 3 when the ancestry assumption or positivity
fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import bn as bnmod
from .criteria import CriterionVerdict, criterion_verdicts
from .equivalence import causal_markov_equivalent, markov_equivalent
from .formula import derive_gformula, render
from .functionals import (
    adjustment_exact,
    eif_variance,
    front_door_exact,
    g_functional_exact,
    plugin_adjustment,
    plugin_g,
)
from .graph import Dag, GraphError, format_graph, parse_graph
from .reduction import reduce
from .simulate import DEFAULTS, SimConfig, run_simulation, sim_table_to_dict
from .taxonomy import AssumptionViolation, Taxonomy, classify

_ORDERED = ("N", "I", "W", "M", "O", "O_min")


def _read_graph(path: str) -> Dag:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_graph(text)
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None


def _emit(payload, json_path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _ordered_members(g: Dag, members) -> list[str]:
    return [v for v in g.vertices if v in members]


def _cmd_taxonomy(args) -> int:
    g = _read_graph(args.graph)
    tax = classify(g)
    _emit({k: _ordered_members(g, getattr(tax, k.lower())) for k in _ORDERED}, args.json)
    return 0


def _verdict_payload(verdict: CriterionVerdict, tax: Taxonomy) -> dict:
    return {
        "vertex": verdict.vertex,
        "set": "W" if verdict.vertex in tax.w else "M",
        "satisfied": verdict.satisfied,
        "failed_clause": verdict.failed_clause,
        "failed_index": verdict.failed_index,
        "chain": list(verdict.chain),
    }


def _cmd_check(args) -> int:
    g = _read_graph(args.graph)
    tax = classify(g)
    verdicts = criterion_verdicts(g, tax)
    _emit([_verdict_payload(d, tax) for d in verdicts.values()], args.json)
    return 0


def _kept_reason(g: Dag, tax: Taxonomy, verdicts: dict[str, CriterionVerdict], v: str) -> str:
    """Why the reduction keeps ``v``: it is the treatment or the outcome,
    it is in O as a parent of a mediator, or its criterion fails."""
    if v == g.treatment:
        return "treatment"
    if v == g.outcome:
        return "outcome"
    if v in tax.o:
        m = next(m for m in g.vertices if m in tax.m and v in g.parents(m))
        return f"in O: parent of mediator {m}"
    verdict = verdicts[v]
    at = f" at t={verdict.failed_index}" if verdict.failed_index else ""
    name = "W" if v in tax.w else "M"
    return f"{name}-criterion fails clause {verdict.failed_clause}{at}"


def _cmd_reduce(args) -> int:
    g = _read_graph(args.graph)
    report = reduce(g)
    sys.stdout.write(format_graph(report.output))
    if args.report:
        tax = report.taxonomy
        payload = {
            "input": bnmod.graph_to_json(report.input),
            "output": bnmod.graph_to_json(report.output),
            "removed": [
                {"vertex": v, "reason": reason, "pi": list(pi)}
                for v, reason, pi in report.removed
            ],
            "kept": [
                {"vertex": v, "reason": _kept_reason(g, tax, report.verdicts, v)}
                for v in report.output.vertices
            ],
            "verdicts": [_verdict_payload(d, tax) for d in report.verdicts.values()],
        }
        _emit(payload, args.report)
    return 0


def _cmd_equiv(args) -> int:
    if len(args.graph) != 2:
        raise GraphError("equiv needs exactly two --graph files")
    g1, g2 = (_read_graph(p) for p in args.graph)
    payload = {"markov": markov_equivalent(g1, g2)}
    try:
        payload["causal_markov"] = causal_markov_equivalent(g1, g2)
    except AssumptionViolation:
        payload["causal_markov"] = False
    _emit(payload, args.json)
    return 0


def _cmd_gformula(args) -> int:
    if args.json and args.format != "json":
        raise GraphError("--json applies only to --format json")
    g = _read_graph(args.graph)
    if args.reduce:
        g = reduce(g).output
    f = derive_gformula(g)
    out = render(f, args.format)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return 0


def _cmd_estimate(args) -> int:
    level = args.level
    adjust = [s for s in (args.adjust or "").split(",") if s]
    mediators = [s for s in (args.mediators or "").split(",") if s]
    if args.bn and (args.data or args.graph):
        raise GraphError("--bn takes neither --data nor --graph")
    if args.laplace is not None and (args.bn or args.estimator != "g"):
        raise GraphError("--laplace applies only to --data with --estimator g")
    if args.adjust is not None and args.estimator != "adjustment":
        raise GraphError("--adjust applies only to --estimator adjustment")
    if args.mediators is not None and args.estimator != "front-door":
        raise GraphError("--mediators applies only to --estimator front-door")
    if args.bn:
        network = bnmod.load_bn(args.bn)
        n = None
        if args.estimator == "g":
            value = g_functional_exact(network, level)
        elif args.estimator == "adjustment":
            value = adjustment_exact(network, adjust, level)
        elif args.estimator == "front-door":
            value = front_door_exact(network, mediators, level)
        else:
            value = eif_variance(network, level)
    elif args.data:
        if not args.graph:
            raise GraphError("--data estimation needs --graph")
        g = _read_graph(args.graph)
        ds = bnmod.dataset_from_csv(args.data)
        n = ds.n
        if args.estimator == "g":
            value = plugin_g(ds, g, level, laplace=args.laplace)
        elif args.estimator == "adjustment":
            value = plugin_adjustment(ds, g, adjust, level)
        else:
            raise GraphError(
                f"estimator {args.estimator!r} is not available on data"
            )
    else:
        raise GraphError("estimate needs --bn or --data")
    _emit({"estimator": args.estimator, "value": value, "n": n}, args.json)
    return 0


def _cmd_simulate(args) -> int:
    defaults = DEFAULTS[args.setting]
    cfg = SimConfig(
        setting=args.setting,
        m=args.m if args.m is not None else defaults["m"],
        k=args.k if args.k is not None else defaults["k"],
        n=args.n,
        replications=args.reps,
        seed=args.seed,
    )
    table = run_simulation(cfg, on_empty=args.on_empty)
    payload = sim_table_to_dict(cfg, table)
    width = max(len(r.estimator) for r in table.rows)
    for row in table.rows:
        se = f"{row.monte_carlo_se:.4g}" if row.monte_carlo_se is not None else "undefined"
        print(
            f"n={row.n}  {row.estimator:<{width}}  "
            f"n*var={row.n_times_variance:.4f}  mc_se={se}",
            file=sys.stderr,
        )
    _emit(payload, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causal-reduce",
        description=(
            "Identify informative variables in a causal DAG, reduce the "
            "graph, and evaluate or simulate the associated estimators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph(p, required=True):
        p.add_argument("--graph", required=required, help="graph file")

    def add_json(p):
        p.add_argument("--json", help="write JSON output to this path")

    p = sub.add_parser("taxonomy", help="classify vertices into N/I/W/M/O/O_min")
    add_graph(p)
    add_json(p)
    p.set_defaults(func=_cmd_taxonomy)

    p = sub.add_parser("check", help="per-vertex uninformativeness verdicts")
    add_graph(p)
    add_json(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reduce", help="reduce a graph; prints the reduced graph")
    add_graph(p)
    p.add_argument("--report", help="write a JSON reduction report to this path")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("equiv", help="Markov / causal Markov equivalence of two graphs")
    p.add_argument("--graph", action="append", required=True, help="graph file (twice)")
    add_json(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("gformula", help="emit the identifying formula")
    add_graph(p)
    p.add_argument("--reduce", action="store_true", help="reduce the graph first")
    p.add_argument(
        "--format", choices=("text", "latex", "json"), default="text"
    )
    add_json(p)
    p.set_defaults(func=_cmd_gformula)

    p = sub.add_parser("estimate", help="exact functionals or plugin estimates")
    p.add_argument("--bn", help="network JSON file (exact evaluation)")
    p.add_argument("--data", help="dataset CSV (plugin estimation)")
    add_graph(p, required=False)
    p.add_argument("--level", type=int, default=1, help="treatment level a")
    p.add_argument(
        "--estimator",
        choices=("g", "adjustment", "front-door", "eif-variance"),
        default="g",
    )
    p.add_argument("--adjust", help="comma-separated adjustment set")
    p.add_argument("--mediators", help="comma-separated mediator set")
    p.add_argument(
        "--laplace",
        type=float,
        default=None,
        help="additive smoothing of the g plugin on --data (opt-in)",
    )
    add_json(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="estimator variance comparison")
    p.add_argument("--setting", choices=("a", "b"), default="a")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--on-empty",
        choices=("error", "skip"),
        default="error",
        help="what to do when a replication has an undefined conditional",
    )
    add_json(p)
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AssumptionViolation, bnmod.PositivityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
