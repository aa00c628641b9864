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
from .functionals import _factors, _g_formula_exact
from .graph import Dag, GraphError, ancestors
from .taxonomy import AssumptionViolation

__all__ = ["GFormula", "Factor", "derive_gformula", "render", "evaluate"]


@dataclass(frozen=True)
class Factor:
    """One conditional density p(child | parents); a parent that is not
    summed is the treatment, set to the level."""

    child: str
    parents: tuple[str, ...]


@dataclass(frozen=True)
class GFormula:
    """Summation variables plus factors of the truncated factorization.

    ``outcome`` names the variable whose value is averaged.  Construction
    raises :class:`~causal_reduce.graph.GraphError` unless the outcome is
    summed, each summation variable is the child of exactly one factor, and
    at most one parent label is not summed."""

    outcome: str
    sum_vars: tuple[str, ...]
    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        children = [fa.child for fa in self.factors]
        if set(self.sum_vars) != set(children):
            raise GraphError("formula must carry one factor per summation variable")
        if len(set(children)) < len(children):
            raise GraphError("formula carries two factors for one child")
        if self.outcome not in self.sum_vars:
            raise GraphError(f"outcome {self.outcome!r} must be a summation variable")
        if len(_treatment_labels(self)) > 1:
            raise GraphError("formula references more than one non-summed label")


def derive_gformula(g: Dag) -> GFormula:
    """The g-formula of ``g``: factors in topological order, treatment factor
    dropped, treatment substituted where it is a parent."""
    if g.treatment not in ancestors(g, {g.outcome}):
        raise AssumptionViolation(
            f"treatment {g.treatment!r} is not an ancestor of outcome {g.outcome!r}"
        )
    sum_vars = tuple(v for v in g.vertices if v != g.treatment)
    factors = tuple(Factor(v, parents) for v, parents in _factors(g))
    return GFormula(outcome=g.outcome, sum_vars=sum_vars, factors=factors)


def _treatment_labels(f: GFormula) -> set[str]:
    """The labels that stand for the treatment: the factors' parents that are
    not summed."""
    return {v for fa in f.factors for v in fa.parents if v not in f.sum_vars}


def _latex_sym(label: str) -> str:
    """A label in LaTeX: lower case, underscores escaped, and a trailing
    number set as a subscript."""
    low = label.lower()
    m = re.match(r"^([a-z_]+)(\d+)$", low)
    if m:
        base = m.group(1).replace("_", "\\_")
        return f"{base}_{{{m.group(2)}}}" if len(m.group(2)) > 1 else f"{base}_{m.group(2)}"
    return low.replace("_", "\\_")


# Per format: the symbol of a label, the sum sign, the conditional bar, the
# list separator, the product sign, and whether a lone summation subscript
# wider than one character is braced.
_STYLES = {
    "text": (str.lower, "sum", "|", ",", " * ", False),
    "latex": (_latex_sym, "\\sum", " \\mid ", ", ", " \\, ", True),
}


def render(f: GFormula, fmt: str = "text") -> str:
    """Deterministic rendering as ``text``, ``latex`` or ``json``.  A
    factor's parent that is not summed is the treatment and renders as the
    level ``a``."""
    treat = _treatment_labels(f)
    if fmt == "json":
        return json.dumps(
            {
                "level": "a",
                "outcome": f.outcome,
                "sum_vars": list(f.sum_vars),
                "factors": [
                    {
                        "child": fa.child,
                        "parents": list(fa.parents),
                        "substitute_a": not treat.isdisjoint(fa.parents),
                    }
                    for fa in f.factors
                ],
            },
            indent=2,
        )
    if fmt not in _STYLES:
        raise ValueError(f"unknown format {fmt!r}")
    label_sym, sum_sign, bar, sep, times, brace_wide = _STYLES[fmt]

    def sym(label: str) -> str:
        return "a" if label in treat else label_sym(label)

    decl = {v: i for i, v in enumerate(f.sum_vars)}
    display_order = sorted(
        f.factors, key=lambda fa: (fa.child != f.outcome, decl.get(fa.child, 0))
    )
    sum_syms = [sym(fa.child) for fa in display_order]
    braced = len(sum_syms) > 1 or (brace_wide and len(sum_syms[0]) > 1)
    sub = "{" + sep.join(sum_syms) + "}" if braced else sum_syms[0]
    terms = [f"{sum_sign}_{sub} {sym(f.outcome)}"]
    for fa in display_order:
        # the treatment's symbol first, then the other parents in order
        args = sep.join(sym(x) for x in sorted(fa.parents, key=lambda x: x not in treat))
        terms.append(f"p({sym(fa.child)}{bar}{args})" if args else f"p({sym(fa.child)})")
    return times.join(terms)


def evaluate(f: GFormula, bn: DiscreteBn, a: int) -> float:
    """Evaluate the formula against a network's law, exactly: each
    conditional comes from the marginal law over its factor's labels, so the
    formula may come from a reduced graph; every label must be a vertex.
    The conditionals are contracted family by family, and past 2**14 cells
    no table over all the labels is formed: every family's table then comes
    from one calibrated pass over the CPTs.  On ``derive_gformula(g)`` this
    is :func:`~causal_reduce.functionals.g_functional_for_graph` on ``g``:
    the same value to the bit, or the same error with the same ``cell``.
    """
    treat_labels = _treatment_labels(f)
    treatment = treat_labels.pop() if treat_labels else bn.graph.treatment
    factors = [(fa.child, fa.parents) for fa in f.factors]
    return _g_formula_exact(bn, factors, treatment, f.outcome, a)
