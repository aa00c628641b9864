"""Independent reference computations and the output checks built on them.

Nothing here calls the program's graph algorithms or exact routines: the
taxonomy comes from plain reachability over the edge list (``inputs.taxonomy``)
and the interventional mean from a truncated-factorization sum written out
here.  Only a law's data is read from the program's objects: its CPT arrays
and their parent-axis order.  Every check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from inputs import taxonomy

EXACT_TOL = 1e-10
VARIANCE_TOL = 1e-8
# A mean of replications must lie within this many Monte-Carlo standard
# errors of the exact value.
SE_LIMIT = 5.0


def _factors(bn, a: int):
    """(vertex, parent labels, table) per non-treatment vertex, with the
    treatment axis fixed at level ``a``."""
    treat = bn.graph.treatment
    for v in bn.graph.vertices:
        if v == treat:
            continue
        parents = list(bn.parent_order(v))
        table = np.asarray(bn.cpts[v])
        if treat in parents:
            table = np.take(table, a, axis=parents.index(treat))
            parents.remove(treat)
        yield v, parents, table


def mean_outcome_loop(bn, a: int) -> float:
    """E Y(a) by a nested loop over every configuration of the
    non-treatment vertices (small laws only)."""
    factors = list(_factors(bn, a))
    labels = [v for v, _, _ in factors]
    ranges = [range(bn.cards[v]) for v in labels]
    y = bn.graph.outcome
    total = 0.0
    for states in itertools.product(*ranges):
        s = dict(zip(labels, states))
        if s[y] == 0:
            continue
        p = 1.0
        for v, parents, table in factors:
            p *= table[tuple(s[q] for q in parents) + (s[v],)]
        total += s[y] * p
    return total


def mean_outcome_einsum(bn, a: int) -> float:
    """E Y(a) by one ``np.einsum`` over the CPTs with the treatment fixed."""
    factors = list(_factors(bn, a))
    axis = {v: i for i, (v, _, _) in enumerate(factors)}
    args: list = []
    for v, parents, table in factors:
        args += [table, [axis[q] for q in parents] + [axis[v]]]
    y = bn.graph.outcome
    args += [np.arange(bn.cards[y], dtype=float), [axis[y]]]
    return float(np.einsum(*args, [], optimize="greedy"))


# -- reduce_dags ---------------------------------------------------------------

def check_taxonomy(edges_graph, tax) -> list[str]:
    """The program's classification against plain reachability."""
    vertices, edges, a, y = edges_graph
    ref = taxonomy(vertices, edges, a, y)
    got = {"N": tax.n, "I": tax.i, "W": tax.w, "M": tax.m, "O": tax.o}
    return [
        f"{k}: expected {sorted(ref[k])}, got {sorted(got[k])}"
        for k in ref
        if set(got[k]) != ref[k]
    ]


def check_reduction(edges_graph, reduced_vertices, informative) -> list[str]:
    """The reduced vertex set equals the informative set and keeps A, Y and O."""
    vertices, edges, a, y = edges_graph
    ref = taxonomy(vertices, edges, a, y)
    kept = set(reduced_vertices)
    problems = []
    if kept != set(informative):
        problems.append(
            f"reduced set {sorted(kept)} differs from informative set {sorted(informative)}"
        )
    missing = ({a, y} | ref["O"]) - kept
    if missing:
        problems.append(f"reduced graph lost {sorted(missing)}")
    return problems


def visit_order(edges_graph, declared) -> list[str]:
    """The reduction's visit list (W and M vertices outside A, Y and O, in
    declaration order), from plain reachability."""
    vertices, edges, a, y = edges_graph
    ref = taxonomy(vertices, edges, a, y)
    skip = ref["N"] | ref["I"] | ref["O"] | {a, y}
    return [v for v in declared if v not in skip]


def check_formula_text(text: str, kept: int) -> list[str]:
    """The rendered g-formula has one factor per kept non-treatment vertex."""
    factors = text.count("p(")
    if factors != kept - 1:
        return [f"formula has {factors} factors for {kept} kept vertices"]
    return []


def check_close(name: str, got: float, want: float, tol: float) -> list[str]:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        return [f"{name} = {got!r}, expected {want!r} within {tol}"]
    return []


# -- exact workloads -------------------------------------------------------------

def check_exact_routes(reference: float, values: dict[str, float]) -> list[str]:
    """Four functional routes equal the independent sum within 1e-10; the two
    variance bounds agree within 1e-8 and are non-negative."""
    problems = []
    for name in ("g_functional_exact", "g_functional_for_graph", "adjustment_exact", "evaluate"):
        problems += check_close(name, values[name], reference, EXACT_TOL)
    full, red = values["eif_variance"], values["eif_variance_for_graph"]
    problems += check_close("eif_variance_for_graph", red, full, VARIANCE_TOL)
    if not full >= 0.0 or not red >= 0.0:
        problems.append(f"negative variance bound: {full!r}, {red!r}")
    return problems


# -- simulate ----------------------------------------------------------------------

def check_simulation(reference: float, estimates: dict[str, np.ndarray], skipped: int) -> list[str]:
    """Each estimator's mean lies within SE_LIMIT Monte-Carlo standard
    errors of the exact mean; every estimate lies in [0, 1]; none skipped."""
    problems = []
    if skipped:
        problems.append(f"{skipped} replications skipped")
    for name, x in estimates.items():
        x = np.asarray(x, dtype=float)
        if x.size < 2 or not np.all((x >= 0.0) & (x <= 1.0)):
            problems.append(f"{name}: estimates outside [0, 1] or too few")
            continue
        se = float(x.std(ddof=1)) / math.sqrt(x.size)
        if not abs(float(x.mean()) - reference) <= SE_LIMIT * se:
            problems.append(
                f"{name}: mean {x.mean():.6f} is more than {SE_LIMIT} SE "
                f"({se:.2e}) from E Y(1) = {reference:.6f}"
            )
    return problems
