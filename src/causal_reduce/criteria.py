"""Uninformativeness criteria for baseline covariates and mediators.

A baseline covariate (W vertex outside O) or mediator (other than the
outcome) is uninformative when a chain of d-separation and parent-nesting
conditions holds along its child chain; the informative set keeps treatment,
outcome, the optimal adjustment set, and every vertex failing its criterion.

The checks run on the graph's parent masks.  One pass over a graph
(:func:`criterion_verdicts`) keeps a table of the d-separation answers per
group, W and M, so each distinct query of the pass runs the ball once: on a
covariate chain, the clause (ii_c) query of one vertex is the clause (i)
query of its parent.
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


# d-separation answers of one pass and one group of criteria, keyed by the
# masks (x, z) of each query; the group fixes the targets
Answers = dict[tuple[int, int], bool]


def _criterion(
    g: Dag, vertex: str, members: frozenset[str], name: str,
    group: frozenset[str], targets: frozenset[str], answers: Answers | None,
) -> CriterionVerdict:
    """The criterion of ``vertex``, which must be in ``members``, along its
    chain of children in ``group`` with d-separation from ``targets``.
    ``name`` names ``members`` in errors; its first letter names ``group``.
    Each query reads ``answers`` first and runs the ball only on a miss."""
    if vertex not in members:
        raise ValueError(f"{vertex!r} is not in {name}")
    chain = g.sort_topologically(g.children(vertex) & group)
    if not chain:
        raise RuntimeError(
            f"internal invariant violated: {vertex!r} in {name} has no child in {name[0]}"
        )
    pa, index = g._masks[0], g._index
    tm = _bits(g, targets)
    if answers is None:
        answers = {}

    def separated(xm: int, zm: int) -> bool:
        # the targets are fixed per table, so (xm, zm) is the whole query
        sep = answers.get((xm, zm))
        if sep is None:
            sep = answers[xm, zm] = _separated(g, xm, tm & ~zm, zm)
        return sep

    prev = index[vertex]
    last = index[chain[-1]]
    if not separated(1 << prev, (1 << last | pa[last]) & ~(1 << prev)):
        return CriterionVerdict(vertex, False, "i", None, chain)
    for t, label in enumerate(chain, start=1):
        cur = index[label]
        if not pa[cur] >> prev & 1:
            return CriterionVerdict(vertex, False, "ii_a", t, chain)
        if pa[cur] & ~(pa[prev] | 1 << prev):
            return CriterionVerdict(vertex, False, "ii_b", t, chain)
        if not separated(pa[prev] & ~pa[cur], pa[cur]):
            return CriterionVerdict(vertex, False, "ii_c", t, chain)
        prev = cur
    return CriterionVerdict(vertex, True, None, None, chain)


def w_criterion(
    g: Dag, tax: Taxonomy, wj: str, *, answers: Answers | None = None
) -> CriterionVerdict:
    """Check whether baseline covariate ``wj`` is uninformative.

    ``answers`` holds the d-separation answers (given O as targets) already
    found in this pass on ``g``; a fresh table is used when it is omitted."""
    return _criterion(g, wj, tax.w - tax.o, "W \\ O", tax.w, tax.o, answers)


def m_criterion(
    g: Dag, tax: Taxonomy, mi: str, *, answers: Answers | None = None
) -> CriterionVerdict:
    """Check whether mediator ``mi`` (not the outcome) is uninformative.

    ``answers`` holds the d-separation answers (given {A, Y} ∪ O_min as
    targets) already found in this pass on ``g``; a fresh table is used when
    it is omitted."""
    targets = frozenset({g.treatment, g.outcome}) | tax.o_min
    return _criterion(g, mi, tax.m - {g.outcome}, "M \\ {Y}", tax.m, targets, answers)


def criterion_verdicts(g: Dag, tax: Taxonomy) -> dict[str, CriterionVerdict]:
    """The verdict of every vertex of W \\ O (W-criterion) and of M \\ {Y}
    (M-criterion) on ``g`` with taxonomy ``tax``, in declaration order.

    The pass keeps one answer table per group, since the two groups ask
    about different targets: each distinct d-separation query is answered
    once, and the tables go when the pass ends."""
    w_out, m_out = tax.w - tax.o, tax.m - {g.outcome}
    w_answers: Answers = {}
    m_answers: Answers = {}
    verdicts = {}
    for v in g.vertices:
        if v in w_out:
            verdicts[v] = w_criterion(g, tax, v, answers=w_answers)
        elif v in m_out:
            verdicts[v] = m_criterion(g, tax, v, answers=m_answers)
    return verdicts


def informative_set(g: Dag) -> frozenset[str]:
    """The irreducible informative vertex set: {A, Y} and O plus every W or M
    vertex that fails its criterion."""
    tax = classify(g)
    verdicts = criterion_verdicts(g, tax).values()
    failed = {verdict.vertex for verdict in verdicts if not verdict.satisfied}
    return frozenset({g.treatment, g.outcome} | tax.o | failed)
