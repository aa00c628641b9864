"""Graph reduction: saturating vertex projections and the reduction loop.

Removes non-ancestors and indirect ancestors first, then projects out every
remaining vertex whose W- or M-criterion holds on the input graph, so the
output does not depend on the visit order.  The output graph represents the
marginal model over the informative vertices; a latent-projection view
(which introduces bidirected edges instead) is provided as a read-only
contrast artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .criteria import CriterionVerdict, criterion_verdicts
from .graph import Dag, GraphError, ancestors
from .taxonomy import Taxonomy, classify

__all__ = [
    "ReductionReport",
    "LatentProjectionView",
    "project_out_ni",
    "project_vertex",
    "reduce",
    "latent_projection",
]


@dataclass(frozen=True)
class ReductionReport:
    """Audit trail of a reduction: each removal records the vertex, why it
    was removed (N, I, W-criterion or M-criterion) and the child ordering
    used for the projection (empty for N/I removals); ``verdicts`` maps each
    W \\ O and M \\ {Y} vertex to its verdict, kept ones included."""

    input: Dag
    output: Dag
    removed: tuple[tuple[str, str, tuple[str, ...]], ...]
    verdicts: dict[str, CriterionVerdict] = field(hash=False)


@dataclass(frozen=True)
class LatentProjectionView:
    """Read-only latent projection: marginalization that introduces
    bidirected edges for marginalized common causes."""

    vertices: tuple[str, ...]
    directed_edges: frozenset[tuple[str, str]]
    bidirected_edges: frozenset[frozenset[str]]


def project_out_ni(g: Dag) -> Dag:
    """Marginalize out all N and I vertices in one step.

    For every pair of kept vertices joined by a causal path whose interior
    lies in I, the corresponding edge is added before N and I are deleted.
    """
    return _drop_ni(g, classify(g))


def _drop_ni(g: Dag, tax: Taxonomy) -> Dag:
    """:func:`project_out_ni` with the taxonomy ``tax`` of ``g`` given."""
    drop = tax.n | tax.i
    keep = [v for v in g.vertices if v not in drop]
    keep_set = set(keep)
    edges = [e for e in g.edges if e[0] in keep_set and e[1] in keep_set]
    edge_set = set(edges)
    added: list[tuple[str, str]] = []
    for u in keep:
        # reachable kept vertices via directed paths with interior in I
        stack = [c for c in g.children(u) if c in tax.i]
        seen = set(stack)
        while stack:
            x = stack.pop()
            for c in g.children(x):
                if c in keep_set:
                    if (u, c) not in edge_set:
                        edge_set.add((u, c))
                        added.append((u, c))
                elif c in tax.i and c not in seen:
                    seen.add(c)
                    stack.append(c)
    idx = {v: i for i, v in enumerate(g.vertices)}
    added.sort(key=lambda e: (idx[e[0]], idx[e[1]]))
    return Dag(keep, edges + added, g.treatment, g.outcome)


def project_vertex(g: Dag, vi: str, pi: Sequence[str]) -> Dag:
    """Project out ``vi``, saturating edges onto its children along ``pi``.

    ``pi`` must be a topological ordering of all children of ``vi``; for
    every child but the last, its parent set must nest inside the previous
    element's parents (plus that element).  Every parent of ``vi`` and every
    earlier element of ``pi`` gains an edge into each child before ``vi`` is
    deleted; the result is asserted acyclic.
    """
    g._check(vi)
    order = tuple(pi)
    ch = g.children(vi)
    if set(order) != set(ch) or len(order) != len(ch):
        raise GraphError(f"pi must order the children of {vi!r} exactly")
    for j, u in enumerate(order):
        anc_u = ancestors(g, {u})
        for later in order[j + 1 :]:
            if later in anc_u:
                raise GraphError("pi is not a topological ordering")
    prev = vi
    for cur in order[:-1]:
        if not g.parents(cur) <= g.parents(prev) | {prev}:
            raise GraphError(
                f"parent nesting violated at {cur!r} when projecting out {vi!r}"
            )
        prev = cur

    pa_vi = g.parents(vi)
    edge_set = set(g.edges)
    added: list[tuple[str, str]] = []
    predecessors: list[str] = [vi]
    for child in order:
        for src in list(pa_vi) + predecessors:
            e = (src, child)
            if src != child and e not in edge_set:
                edge_set.add(e)
                added.append(e)
        predecessors.append(child)
    keep = [v for v in g.vertices if v != vi]
    idx = {v: i for i, v in enumerate(g.vertices)}
    added.sort(key=lambda e: (idx[e[0]], idx[e[1]]))
    edges = [e for e in list(g.edges) + added if e[0] != vi and e[1] != vi]
    return Dag(keep, edges, g.treatment, g.outcome)


def reduce(g: Dag, *, order: Iterable[str] | None = None) -> ReductionReport:
    """Run the full reduction and return a :class:`ReductionReport`.

    ``g`` is classified and its vertices are judged once; no projection
    changes the taxonomy or the verdicts of the vertices left.  The vertices
    whose criterion holds are projected out one at a time, in declaration
    order by default; ``order`` overrides the visit order (the output graph
    does not depend on it).
    """
    tax = classify(g)
    removed: list[tuple[str, str, tuple[str, ...]]] = []
    for v in g.vertices:
        if v in tax.n:
            removed.append((v, "N", ()))
        elif v in tax.i:
            removed.append((v, "I", ()))
    cur = _drop_ni(g, tax)

    verdicts = criterion_verdicts(g, tax)
    loop = list(verdicts) if order is None else list(order)
    if sorted(loop) != sorted(verdicts):
        raise GraphError("order must be a permutation of the non-kept vertices")

    for v in loop:
        if not verdicts[v].satisfied:
            continue
        # the children in topological order, the treatment last: a W \ O
        # vertex's other children are in W, and an M vertex's are in M
        children = cur.children(v)
        pi = cur.sort_topologically(children - {g.treatment})
        if g.treatment in children:
            pi += (g.treatment,)
        cur = project_vertex(cur, v, pi)
        removed.append((v, "W-criterion" if v in tax.w else "M-criterion", pi))
    return ReductionReport(input=g, output=cur, removed=tuple(removed), verdicts=verdicts)


def latent_projection(g: Dag, keep: Iterable[str]) -> LatentProjectionView:
    """Latent projection of ``g`` onto ``keep`` (must contain A and Y).

    Directed edge a -> b iff a directed path from a to b has every interior
    vertex marginalized; bidirected a <-> b iff some marginalized vertex
    reaches both a and b through marginalized interiors.
    """
    keep_set = set()
    for v in keep:
        g._check(v)
        keep_set.add(v)
    if g.treatment not in keep_set or g.outcome not in keep_set:
        raise GraphError("keep must contain the treatment and the outcome")
    latent = [v for v in g.vertices if v not in keep_set]
    latent_set = set(latent)

    def reach_through_latent(start_children: Iterable[str]) -> set[str]:
        hits: set[str] = set()
        stack = list(start_children)
        seen: set[str] = set()
        while stack:
            x = stack.pop()
            if x in keep_set:
                hits.add(x)
                continue
            if x in seen:
                continue
            seen.add(x)
            stack.extend(g.children(x))
        return hits

    directed: set[tuple[str, str]] = set()
    for u in keep_set:
        for t in reach_through_latent(g.children(u)):
            directed.add((u, t))
    bidirected: set[frozenset[str]] = set()
    for s in latent_set:
        hits = sorted(reach_through_latent(g.children(s)))
        for i, a in enumerate(hits):
            for b in hits[i + 1 :]:
                bidirected.add(frozenset({a, b}))
    vertices = tuple(v for v in g.vertices if v in keep_set)
    return LatentProjectionView(
        vertices=vertices,
        directed_edges=frozenset(directed),
        bidirected_edges=frozenset(bidirected),
    )
