"""Symbolic g-formulas: derivation from a graph, rendering, and a generic
evaluator.

The formula is the graph's truncated factorization: one conditional-density
factor per non-treatment vertex, with the treatment substituted by its
intervened level wherever it appears as a parent.  No algebraic
simplification is performed; simplification is achieved structurally by
reducing the graph first.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .bn import DiscreteBn
from .functionals import _g_formula_exact
from .graph import Dag, GraphError, ancestors, topo_sort

__all__ = ["GFormula", "Factor", "derive_gformula", "render", "parse_json", "evaluate"]


@dataclass(frozen=True)
class Factor:
    """One conditional density p(child | parents); ``substitute_a`` marks
    that the treatment appears among the parents and is set to the level."""

    child: str
    parents: tuple[str, ...]
    substitute_a: bool


@dataclass(frozen=True)
class GFormula:
    """Summation variables plus factors of the truncated factorization.

    ``outcome`` names the variable whose value is averaged."""

    level: str
    outcome: str
    sum_vars: tuple[str, ...]
    factors: tuple[Factor, ...]


def derive_gformula(g: Dag) -> GFormula:
    """The g-formula of ``g``: factors in topological order, treatment factor
    dropped, treatment substituted where it is a parent."""
    if g.treatment not in ancestors(g, {g.outcome}):
        from .taxonomy import AssumptionViolation

        raise AssumptionViolation(
            f"treatment {g.treatment!r} is not an ancestor of outcome {g.outcome!r}"
        )
    sum_vars = tuple(v for v in g.vertices if v != g.treatment)
    factors = tuple(
        Factor(
            child=v,
            parents=g.parent_list(v),
            substitute_a=g.treatment in g.parents(v),
        )
        for v in topo_sort(g)
        if v != g.treatment
    )
    return GFormula(
        level="a", outcome=g.outcome, sum_vars=sum_vars, factors=factors
    )


def _sym(label: str, level: str, treatment_labels: set[str], latex: bool) -> str:
    if label in treatment_labels:
        return level
    low = label.lower()
    if latex:
        m = re.match(r"^([a-z_]+)(\d+)$", low)
        if m:
            base = m.group(1).replace("_", "\\_")
            return f"{base}_{{{m.group(2)}}}" if len(m.group(2)) > 1 else f"{base}_{m.group(2)}"
        return low.replace("_", "\\_")
    return low


def _ordered_args(f: Factor, treatment: set[str]) -> list[str]:
    subs = [p for p in f.parents if p in treatment]
    rest = [p for p in f.parents if p not in treatment]
    return subs + rest


def render(f: GFormula, fmt: str = "text", treatment: str | None = None) -> str:
    """Deterministic rendering as ``text``, ``latex`` or ``json``.

    The treatment label is inferred from the substituted factors; pass
    ``treatment`` explicitly for formulas with no substitution.
    """
    if fmt == "json":
        return json.dumps(
            {
                "level": f.level,
                "outcome": f.outcome,
                "sum_vars": list(f.sum_vars),
                "factors": [
                    {
                        "child": fa.child,
                        "parents": list(fa.parents),
                        "substitute_a": fa.substitute_a,
                    }
                    for fa in f.factors
                ],
            },
            indent=2,
        )
    treat: set[str] = set()
    if treatment is not None:
        treat.add(treatment)
    for fa in f.factors:
        if fa.substitute_a:
            treat |= set(fa.parents) - set(f.sum_vars)
    latex = fmt == "latex"
    if fmt not in ("text", "latex"):
        raise ValueError(f"unknown format {fmt!r}")
    outcome = f.outcome
    decl = {v: i for i, v in enumerate(f.sum_vars)}
    display_order = sorted(
        f.factors, key=lambda fa: (fa.child != outcome, decl.get(fa.child, 0))
    )
    sum_syms = [
        _sym(fa.child, f.level, treat, latex) for fa in display_order
    ]
    y_sym = _sym(outcome, f.level, treat, latex)
    pieces = []
    for fa in display_order:
        args = [_sym(x, f.level, treat, latex) for x in _ordered_args(fa, treat)]
        child = _sym(fa.child, f.level, treat, latex)
        if latex:
            body = f"p({child} \\mid {', '.join(args)})" if args else f"p({child})"
        else:
            body = f"p({child}|{','.join(args)})" if args else f"p({child})"
        pieces.append(body)
    if latex:
        head = (
            f"\\sum_{{{', '.join(sum_syms)}}} {y_sym}"
            if len(sum_syms) > 1 or len(sum_syms[0]) > 1
            else f"\\sum_{sum_syms[0]} {y_sym}"
        )
        return head + " \\, " + " \\, ".join(pieces)
    head = (
        f"sum_{{{','.join(sum_syms)}}} {y_sym}"
        if len(sum_syms) > 1
        else f"sum_{sum_syms[0]} {y_sym}"
    )
    return head + " * " + " * ".join(pieces)


def parse_json(text: str) -> GFormula:
    """Inverse of the json rendering; round-trips losslessly."""
    payload = json.loads(text)
    return GFormula(
        level=payload["level"],
        outcome=payload["outcome"],
        sum_vars=tuple(payload["sum_vars"]),
        factors=tuple(
            Factor(
                child=fa["child"],
                parents=tuple(fa["parents"]),
                substitute_a=bool(fa["substitute_a"]),
            )
            for fa in payload["factors"]
        ),
    )


def evaluate(f: GFormula, bn: DiscreteBn, a: int) -> float:
    """Evaluate the formula against a network's law, exactly, as
    :func:`~causal_reduce.functionals.g_functional_for_graph` does: each
    conditional comes from the marginal law over its factor's labels, so the
    formula may come from a reduced graph; every label must be a vertex.
    The conditionals are contracted family by family, and past 2**14 cells
    no table over all the labels is formed.
    """
    if set(f.sum_vars) != {fa.child for fa in f.factors}:
        raise GraphError("formula must carry one factor per summation variable")
    treat_labels = {
        v for fa in f.factors for v in fa.parents if v not in f.sum_vars
    }
    if len(treat_labels) > 1:
        raise GraphError("formula references more than one non-summed label")
    treatment = treat_labels.pop() if treat_labels else bn.graph.treatment
    factors = [(fa.child, fa.parents) for fa in f.factors]
    return _g_formula_exact(bn, factors, treatment, f.outcome, a)
