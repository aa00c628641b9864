"""Uninformativeness criteria for baseline covariates and mediators.

A baseline covariate (W vertex outside O) or mediator (other than the
outcome) is uninformative when a chain of d-separation and parent-nesting
conditions holds along its child chain; the informative set keeps treatment,
outcome, the optimal adjustment set, and every vertex failing its criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Dag, d_separated
from .taxonomy import Taxonomy, classify

__all__ = [
    "CriterionVerdict",
    "w_criterion",
    "m_criterion",
    "criterion_verdicts",
    "informative_set",
]


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of a single W- or M-criterion check.

    ``failed_clause`` is one of ``"i"``, ``"ii_a"``, ``"ii_b"``, ``"ii_c"``
    (present iff not satisfied); ``failed_index`` is the 1-based chain
    position t for the ``ii_*`` clauses.  ``chain`` is the topologically
    ordered child chain the check ran against.
    """

    vertex: str
    satisfied: bool
    failed_clause: str | None
    failed_index: int | None
    chain: tuple[str, ...]


def _check_chain(
    g: Dag, vertex: str, chain: tuple[str, ...], targets: frozenset[str]
) -> CriterionVerdict:
    last = chain[-1]
    cond = {last} | (g.parents(last) - {vertex})
    if not d_separated(g, {vertex}, targets, cond):
        return CriterionVerdict(vertex, False, "i", None, chain)
    prev = vertex
    for t, cur in enumerate(chain, start=1):
        if not g.has_edge(prev, cur):
            return CriterionVerdict(vertex, False, "ii_a", t, chain)
        if not g.parents(cur) <= g.parents(prev) | {prev}:
            return CriterionVerdict(vertex, False, "ii_b", t, chain)
        if not d_separated(g, g.parents(prev) - g.parents(cur), targets, g.parents(cur)):
            return CriterionVerdict(vertex, False, "ii_c", t, chain)
        prev = cur
    return CriterionVerdict(vertex, True, None, None, chain)


def w_criterion(g: Dag, tax: Taxonomy, wj: str) -> CriterionVerdict:
    """Check whether baseline covariate ``wj`` is uninformative."""
    if wj not in tax.w - tax.o:
        raise ValueError(f"{wj!r} is not in W \\ O")
    chain = g.sort_topologically(g.children(wj) & tax.w)
    if not chain:
        raise RuntimeError(
            f"internal invariant violated: {wj!r} in W \\ O has no child in W"
        )
    return _check_chain(g, wj, chain, tax.o)


def m_criterion(g: Dag, tax: Taxonomy, mi: str) -> CriterionVerdict:
    """Check whether mediator ``mi`` (not the outcome) is uninformative."""
    if mi not in tax.m - {g.outcome}:
        raise ValueError(f"{mi!r} is not in M \\ {{Y}}")
    chain = g.sort_topologically(g.children(mi) & tax.m)
    if not chain:
        raise RuntimeError(
            f"internal invariant violated: {mi!r} in M \\ {{Y}} has no child in M"
        )
    targets = frozenset({g.treatment, g.outcome}) | tax.o_min
    return _check_chain(g, mi, chain, targets)


def criterion_verdicts(g: Dag, tax: Taxonomy) -> dict[str, CriterionVerdict]:
    """The verdict of every vertex of W \\ O (W-criterion) and of M \\ {Y}
    (M-criterion) on ``g`` with taxonomy ``tax``, in declaration order."""
    w_out, m_out = tax.w - tax.o, tax.m - {g.outcome}
    verdicts = {}
    for v in g.vertices:
        if v in w_out:
            verdicts[v] = w_criterion(g, tax, v)
        elif v in m_out:
            verdicts[v] = m_criterion(g, tax, v)
    return verdicts


def informative_set(g: Dag) -> frozenset[str]:
    """The irreducible informative vertex set: {A, Y} and O plus every W or M
    vertex that fails its criterion."""
    tax = classify(g)
    verdicts = criterion_verdicts(g, tax).values()
    failed = {verdict.vertex for verdict in verdicts if not verdict.satisfied}
    return frozenset({g.treatment, g.outcome} | tax.o | failed)
