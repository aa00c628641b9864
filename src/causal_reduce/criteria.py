"""Uninformativeness criteria for baseline covariates and mediators.

A baseline covariate (W vertex outside O) or mediator (other than the
outcome) is uninformative when a chain of d-separation and parent-nesting
conditions holds along its child chain; the informative set keeps treatment,
outcome, the optimal adjustment set, and every vertex failing its criterion.

The checks run on parent and child masks.  One pass over a graph
(:func:`criterion_verdicts`) judges each vertex on the graph reduced so far:
the mediators and then the covariates, each in topological order, on working
copies of the graph's masks, out of which a vertex whose criterion holds is
projected along its chain before the next is judged.  Projecting out a
satisfied vertex changes no other verdict, and it keeps the balls short: on
a covariate chain C_L -> ... -> C_1 the clause (i) ball of C_j meets no
vertex above it, where on the input graph it walks the whole chain.  Each
group, W and M, keeps a table of d-separation answers, cleared whenever a
vertex of the group goes.  The verdicts, chains included, describe the
input graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Dag, _bits, _separated
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


# d-separation answers of one group of criteria, keyed by the masks (x, z)
# of each query; the group fixes the targets
Answers = dict[tuple[int, int], bool]


def _indices(m: int):
    """The positions of the set bits of ``m``, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _chain(g: Dag, m: int) -> list[int]:
    """The positions of the set bits of ``m`` in the topological order of
    ``g``."""
    if not m & (m - 1):
        return [m.bit_length() - 1] if m else []
    vs, topo = g.vertices, g._topo_index
    return sorted(_indices(m), key=lambda i: topo[vs[i]])


class _Pass(Answers):
    """The answer table of one group in one pass of :func:`criterion_verdicts`.

    It carries the working parent and child masks the pass judges on, which
    the two groups' tables share, and the input's ancestor masks, so it
    stands in for the graph in ``_separated``.  Those stay right for every
    vertex still present, since each edge a projection adds joins a vertex
    to one of its descendants.  It also carries the masks of the group and
    of its targets, set by the group's first criterion, and ``moved``, the
    vertices whose parents or children a projection in the group changed."""

    def __init__(self, g: Dag, pa: list[int], ch: list[int]):
        super().__init__()
        self._masks = (pa, ch, g._masks[2])
        self.group = self.targets = None
        self.moved = 0

    def project(self, v: int, chain: list[int]) -> None:
        """Project ``v`` out of the working masks along ``chain``, its
        children in the group in topological order: its parents and every
        earlier chain vertex gain an edge into each later chain vertex, then
        its own edges go, so its children outside the chain lose it as a
        parent and gain nothing: a W query never turns back up outside W,
        and an M query never needs N.  The table's answers go with it."""
        pa, ch, _ = self._masks
        self.moved |= 1 << v | pa[v] | ch[v]
        sources = pa[v]
        for c in chain:
            for s in _indices(sources & ~pa[c]):
                ch[s] |= 1 << c
            pa[c] |= sources
            sources |= 1 << c
        for masks, ends in ((ch, pa[v]), (pa, ch[v])):
            for u in _indices(ends):
                masks[u] &= ~(1 << v)
        pa[v] = ch[v] = 0
        self.clear()


def _judge(
    g: Dag, on: Dag | _Pass, v: int, gm: int, tm: int, answers: Answers
) -> tuple[str | None, int | None, list[int]]:
    """The criterion of vertex ``v`` of ``g`` on the parent and child masks
    of ``on``, the graph or a pass's working masks, along its chain of
    children in the group ``gm`` with d-separation from the targets ``tm``:
    the failed clause and chain position, both None when it holds, and the
    chain.  Each query reads ``answers`` first and runs the ball only on a
    miss."""
    pa, ch, _ = on._masks
    chain = _chain(g, ch[v] & gm)
    if not chain:
        raise RuntimeError(
            f"internal invariant violated: {g.vertices[v]!r} has no child in its group"
        )

    def separated(xm: int, zm: int) -> bool:
        # the targets are fixed per table, so (xm, zm) is the whole query
        sep = answers.get((xm, zm))
        if sep is None:
            sep = answers[xm, zm] = _separated(on, xm, tm & ~zm, zm)
        return sep

    last = chain[-1]
    if not separated(1 << v, (1 << last | pa[last]) & ~(1 << v)):
        return "i", None, chain
    prev = v
    for t, cur in enumerate(chain, start=1):
        if not pa[cur] >> prev & 1:
            return "ii_a", t, chain
        if pa[cur] & ~(pa[prev] | 1 << prev):
            return "ii_b", t, chain
        if not separated(pa[prev] & ~pa[cur], pa[cur]):
            return "ii_c", t, chain
        prev = cur
    return None, None, chain


def _criterion(
    g: Dag, vertex: str, group: frozenset[str], targets: frozenset[str],
    answers: Answers | None,
) -> CriterionVerdict:
    """The criterion of ``vertex`` along its chain of children in ``group``
    with d-separation from ``targets``, on ``g``, or on the working masks
    when ``answers`` is a pass's table.  A vertex whose criterion holds
    there is projected out of them.  The verdict is the one on ``g``: a
    satisfied one records its chain on ``g``, and a failed one is judged
    again on ``g`` when a projection has moved the edges of the vertex or
    of its chain."""
    v = g._index[vertex]
    if not isinstance(answers, _Pass):
        gm, tm = _bits(g, group), _bits(g, targets)
        clause, t, chain = _judge(g, g, v, gm, tm, {} if answers is None else answers)
    else:
        if answers.targets is None:
            answers.group, answers.targets = _bits(g, group), _bits(g, targets)
        gm, tm, moved = answers.group, answers.targets, answers.moved
        clause, t, chain = _judge(g, answers, v, gm, tm, answers)
        # a verdict reads the parents of the vertex and of its chain, and
        # d-separation answers, which the working masks give as ``g`` does;
        # where a projection moved none of those edges, it is the verdict
        # on ``g``
        if clause is None:
            answers.project(v, chain)
            if moved >> v & 1:
                chain = _chain(g, g._masks[1][v] & gm)
        elif (1 << v | answers._masks[1][v] & gm) & moved:
            clause, t, chain = _judge(g, g, v, gm, tm, {})
    labels = tuple(g.vertices[c] for c in chain)
    return CriterionVerdict(vertex, clause is None, clause, t, labels)


def w_criterion(
    g: Dag, tax: Taxonomy, wj: str, *, answers: Answers | None = None
) -> CriterionVerdict:
    """Check whether baseline covariate ``wj`` is uninformative in ``g``.

    ``answers`` holds the d-separation answers (given O as targets) already
    found on ``g``; a fresh table is used when it is omitted."""
    if wj not in tax.w or wj in tax.o:
        raise ValueError(f"{wj!r} is not in W \\ O")
    return _criterion(g, wj, tax.w, tax.o, answers)


def m_criterion(
    g: Dag, tax: Taxonomy, mi: str, *, answers: Answers | None = None
) -> CriterionVerdict:
    """Check whether mediator ``mi`` (not the outcome) is uninformative in
    ``g``.

    ``answers`` holds the d-separation answers (given {A, Y} ∪ O_min as
    targets) already found on ``g``; a fresh table is used when it is
    omitted."""
    if mi not in tax.m or mi == g.outcome:
        raise ValueError(f"{mi!r} is not in M \\ {{Y}}")
    targets = frozenset({g.treatment, g.outcome}) | tax.o_min
    return _criterion(g, mi, tax.m, targets, answers)


def criterion_verdicts(g: Dag, tax: Taxonomy) -> dict[str, CriterionVerdict]:
    """The verdict on ``g`` of every vertex of W \\ O (W-criterion) and of
    M \\ {Y} (M-criterion), with taxonomy ``tax``, in declaration order.

    The pass judges the mediators and then the covariates, each group in
    topological order, on working copies of the parent and child masks of
    ``g``: a vertex whose criterion holds is projected out of them before
    the next is judged, which changes no other verdict, and its group's
    answer table is cleared.  A covariate chain then costs one short ball
    per vertex.  Mediators go first, since a covariate leaves without its
    edge into the treatment, an ancestry the M queries read.  The verdicts
    describe ``g``, not the working masks: see :func:`_criterion`."""
    pa, ch, _ = g._masks
    pa, ch = list(pa), list(ch)
    topo, index = g._topo_index, g._index
    verdicts = {}
    for judge, members in (
        (m_criterion, tax.m - {g.outcome}), (w_criterion, tax.w - tax.o)
    ):
        answers = _Pass(g, pa, ch)
        for v in sorted(members, key=topo.__getitem__):
            verdicts[v] = judge(g, tax, v, answers=answers)
    return dict(sorted(verdicts.items(), key=lambda item: index[item[0]]))


def informative_set(g: Dag) -> frozenset[str]:
    """The irreducible informative vertex set: {A, Y} and O plus every W or M
    vertex that fails its criterion."""
    tax = classify(g)
    verdicts = criterion_verdicts(g, tax).values()
    failed = {verdict.vertex for verdict in verdicts if not verdict.satisfied}
    return frozenset({g.treatment, g.outcome} | tax.o | failed)
