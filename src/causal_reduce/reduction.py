"""Graph reduction: one saturating elimination step and the reduction loop.

Every removed vertex goes by the same step on mutable parent and child sets.
Non-ancestors and indirect ancestors go first, children first; then every
vertex whose W- or M-criterion holds on the input graph, so the output does
not depend on the visit order.  One :class:`Dag` is built at the end.  The
output graph represents the marginal model over the informative vertices; a
latent-projection view (which introduces bidirected edges instead) is
provided as a read-only contrast artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .criteria import CriterionVerdict, criterion_verdicts
from .graph import CycleError, Dag, GraphError, _as_set, _reach, topo_sort
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
    W \\ O and M \\ {Y} vertex to its verdict, kept ones included, and
    ``taxonomy`` is the input's classification that the reduction read."""

    input: Dag
    output: Dag
    removed: tuple[tuple[str, str, tuple[str, ...]], ...]
    verdicts: dict[str, CriterionVerdict] = field(hash=False)
    taxonomy: Taxonomy


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
    pa, _, steps = _drop_ni(g, classify(g))
    return _dag(g, pa, steps)


Adjacency = dict[str, set[str]]


def _adjacency(g: Dag) -> tuple[Adjacency, Adjacency]:
    """Mutable copies of the parent and child sets of ``g``."""
    pa = {v: set(g.parents(v)) for v in g.vertices}
    return pa, {v: set(g.children(v)) for v in g.vertices}


def _eliminate(pa: Adjacency, ch: Adjacency, v: str, pi: Sequence[str]) -> list[tuple[str, str]]:
    """Project ``v`` out of the parent and child sets ``pa`` and ``ch`` along
    ``pi``, an ordering of its children: every parent of ``v`` and every
    earlier element of ``pi`` gains an edge into each element of ``pi``,
    then ``v`` is deleted.  Returns the edges added."""
    sources = set(pa[v])
    added = []
    for c in pi:
        for s in sources - pa[c]:
            added.append((s, c))
            ch[s].add(c)
        pa[c] |= sources
        sources.add(c)
    for p in pa.pop(v):
        ch[p].discard(v)
    for c in ch.pop(v):
        pa[c].discard(v)
    return added


def _drop_ni(g: Dag, tax: Taxonomy) -> tuple[Adjacency, Adjacency, list[list[tuple[str, str]]]]:
    """The adjacency of ``g`` with N and I eliminated, and the edges that
    added, as one step.  Children go first, so an N vertex has no child left
    when it goes and an I vertex has only the treatment."""
    pa, ch = _adjacency(g)
    added = []
    for v in reversed(topo_sort(g)):
        if v in tax.n or v in tax.i:
            added += _eliminate(pa, ch, v, tuple(ch[v]))
    return pa, ch, [added]


def _dag(g: Dag, pa: Adjacency, steps: list[list[tuple[str, str]]]) -> Dag:
    """The graph left in ``pa``: the surviving edges of ``g``, then those
    each step added, in step order and by the declaration order of their
    ends.  Building it is the acyclicity check."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    edges = list(g.edges)
    for added in steps:
        edges += sorted(added, key=lambda e: (idx[e[0]], idx[e[1]]))
    kept = [e for e in edges if e[0] in pa and e[1] in pa]
    return Dag([v for v in g.vertices if v in pa], kept, g.treatment, g.outcome)


def project_vertex(g: Dag, vi: str, pi: Sequence[str]) -> Dag:
    """Project out ``vi``, saturating edges onto its children along ``pi``.

    ``pi`` must be a topological ordering of all children of ``vi``; for
    every child but the last, its parent set must nest inside the previous
    element's parents (plus that element).  Every parent of ``vi`` and every
    earlier element of ``pi`` gains an edge into each child before ``vi`` is
    deleted.  A child placed before one of its ancestors gains an edge that
    closes a cycle, so the acyclicity check of the result checks the order.
    """
    g._check(vi)
    order = tuple(pi)
    children = g.children(vi)
    if set(order) != set(children) or len(order) != len(children):
        raise GraphError(f"pi must order the children of {vi!r} exactly")
    pa, ch = _adjacency(g)
    try:
        out = _dag(g, pa, [_eliminate(pa, ch, vi, order)])
    except CycleError:
        raise GraphError("pi is not a topological ordering") from None
    for prev, cur in zip((vi,) + order, order[:-1]):
        if not g.parents(cur) <= g.parents(prev) | {prev}:
            raise GraphError(
                f"parent nesting violated at {cur!r} when projecting out {vi!r}"
            )
    return out


def reduce(g: Dag, *, order: Iterable[str] | None = None) -> ReductionReport:
    """Run the full reduction and return a :class:`ReductionReport`.

    ``g`` is classified once, and :func:`criterion_verdicts` judges each of
    its W \\ O and M \\ {Y} vertices once, on the graph its pass has reduced
    so far; no projection changes the taxonomy or the verdicts of the
    vertices left, so the report's verdicts and chains describe ``g``.
    After N and I, the vertices whose criterion holds are eliminated one at
    a time, in declaration order by default or in ``order`` (the output
    does not depend on it), and one :class:`Dag` is built at the end.
    """
    tax = classify(g)
    verdicts = criterion_verdicts(g, tax)
    loop = list(verdicts) if order is None else list(order)
    if sorted(loop) != sorted(verdicts):
        raise GraphError("order must be a permutation of the non-kept vertices")

    removed = [(v, "N" if v in tax.n else "I", ()) for v in g.vertices if v in tax.n or v in tax.i]
    pa, ch, steps = _drop_ni(g, tax)
    for v in loop:
        if not verdicts[v].satisfied:
            continue
        # the children in topological order, the treatment last: a W \ O
        # vertex's other children are a chain in W, and an M vertex's in M
        pi = g.sort_topologically(ch[v] - {g.treatment})
        if g.treatment in ch[v]:
            pi += (g.treatment,)
        steps.append(_eliminate(pa, ch, v, pi))
        removed.append((v, "W-criterion" if v in tax.w else "M-criterion", pi))
    return ReductionReport(g, _dag(g, pa, steps), tuple(removed), verdicts, tax)


def latent_projection(g: Dag, keep: Iterable[str]) -> LatentProjectionView:
    """Latent projection of ``g`` onto ``keep`` (must contain A and Y).

    Directed edge a -> b iff a directed path from a to b has every interior
    vertex marginalized; bidirected a <-> b iff some marginalized vertex
    reaches both a and b through marginalized interiors.
    """
    keep_set = _as_set(g, keep)
    if g.treatment not in keep_set or g.outcome not in keep_set:
        raise GraphError("keep must contain the treatment and the outcome")
    latent_set = set(g.vertices) - keep_set

    def reach_through_latent(v: str) -> set[str]:
        return _reach(g, g.children(v), up=False, stop=keep_set) & keep_set

    directed: set[tuple[str, str]] = set()
    for u in keep_set:
        for t in reach_through_latent(u):
            directed.add((u, t))
    bidirected: set[frozenset[str]] = set()
    for s in latent_set:
        hits = sorted(reach_through_latent(s))
        for i, a in enumerate(hits):
            for b in hits[i + 1 :]:
                bidirected.add(frozenset({a, b}))
    vertices = tuple(v for v in g.vertices if v in keep_set)
    return LatentProjectionView(
        vertices=vertices,
        directed_edges=frozenset(directed),
        bidirected_edges=frozenset(bidirected),
    )
