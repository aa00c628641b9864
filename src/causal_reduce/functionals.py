"""Exact evaluation of identifying formulas, the efficient influence
function and its variance, and maximum-likelihood plugin estimators.

Every exact routine contracts the CPTs of a
:class:`~causal_reduce.bn.DiscreteBn` down to the vertices it needs
(:func:`~causal_reduce.bn.contract`); none builds the joint over all
vertices.  ``ENUMERATION_LIMIT`` (10**7 cells) bounds the largest table
formed.  A conditional that a formula needs on an event of probability zero
raises; none is filled in.  The plugin estimators are the same formulas
with each table read from counts instead of from the law.  All routines are
pure given their inputs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .bn import (
    Dataset,
    DiscreteBn,
    PositivityError,
    ZeroConditioningEvent,
    _DENSE_CELLS,
    _broadcast_factor,
    _flat_index,
    check_enumerable,
    contract,
    contract_each,
    cpt_factors,
    marginal,
)
from .graph import Dag, GraphError, _as_set, descendants, topo_sort
from .taxonomy import Taxonomy, classify

__all__ = [
    "EifContext",
    "EmptyCellError",
    "g_functional_exact",
    "g_functional_for_graph",
    "adjustment_exact",
    "front_door_exact",
    "eif_variance",
    "eif_variance_for_graph",
    "eif_variance_terms",
    "adjustment_if_variance",
    "plugin_g",
    "plugin_adjustment",
]


class EmptyCellError(ValueError):
    """A plugin estimator needed a conditional cell with no observations.
    ``cell`` names it as the exact routes' null-event errors do; it is
    ``None`` only where ``run_simulation`` gives up after skipping."""

    def __init__(self, message: str, cell: tuple[str, tuple[int, ...]] | None):
        super().__init__(message)
        self.cell = cell


def _sum_to(joint: np.ndarray, labels: Sequence[str], keep: Iterable[str]) -> np.ndarray:
    """``joint`` summed down to ``keep``, keeping the other axes as size 1."""
    keep = set(keep)
    drop = tuple(i for i, v in enumerate(labels) if v not in keep)
    return joint.sum(axis=drop, keepdims=True)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The one way a conditional is read: ``num / den``, where a cell with
    ``den`` = 0 is undefined and reads ``num`` (0 when both are sums of one
    law); a caller that needs such a cell checks it with :func:`_require`."""
    return num / np.where(den > 0.0, den, 1.0)


def _require(
    weight: np.ndarray, den: np.ndarray, error: type, message: str,
    where: tuple[str, Sequence[int]],
) -> None:
    """The one positivity check: raise ``error`` where ``den`` is 0 on a
    cell that ``weight`` gives positive probability.  ``where`` names the
    conditioning event and the axes of its states; the error's ``cell``,
    also in its message, is that name with the states of the first such
    cell."""
    bad = den <= 0.0
    if bad.any():
        bad = bad & (weight > 0.0)
        if bad.any():
            at = np.argwhere(bad)[0]
            cell = (where[0], tuple(int(at[i]) for i in where[1]))
            exc = error(f"{message} (cell {cell})")
            exc.cell = cell
            raise exc


def _event(labels: Sequence[str], given: Iterable[str], treat: str) -> tuple[str, list[int]]:
    """The ``where`` of a conditional on ``given``: their names, comma-joined
    in ``labels`` order, and their axes.  With nothing given the conditional
    is P(treat = a), and the event is named after the treatment."""
    given = [v for v in labels if v in set(given)]
    return ",".join(given) or treat, [labels.index(v) for v in given]


def _value_axis(labels: Sequence[str], cards: Mapping[str, int], v: str) -> np.ndarray:
    """State values of ``v`` (0..card-1) broadcast along its axis."""
    shape = [1] * len(labels)
    shape[labels.index(v)] = cards[v]
    return np.arange(cards[v], dtype=float).reshape(shape)


def _labels(bn: DiscreteBn, vertices: Iterable[str]) -> list[str]:
    """``vertices``, each checked to be the network's, in declaration order."""
    wanted = _as_set(bn.graph, vertices)
    return [v for v in bn.graph.vertices if v in wanted]


def _law_over(bn: DiscreteBn, vertices: Iterable[str]) -> tuple[list[str], np.ndarray]:
    """The network's marginal over ``vertices``, axes in declaration order."""
    labels = _labels(bn, vertices)
    return labels, marginal(bn, labels)


def _check_level(cards: Mapping[str, int], treat: str, a: int) -> None:
    if not 0 <= a < cards[treat]:
        raise GraphError(f"treatment level {a} out of range")


def _adjustment_graph(g: Dag, L: Iterable[str]) -> Dag:
    """G_L, the graph whose g-formula is the adjustment formula over ``L``:
    its vertices are ``L`` and the treatment and outcome, in ``g``'s order;
    ``L`` is complete in that order, each of its vertices is a parent of the
    treatment and of the outcome, and the treatment is a parent of the
    outcome.  G_L is complete, so every law is Markov relative to it.
    ``L`` holds no descendant of the treatment, so neither the treatment
    nor the outcome."""
    Ls = _as_set(g, L)
    treat, y = g.treatment, g.outcome
    held = Ls & descendants(g, {treat})
    bad = [v for v in g.vertices if v in held]
    if bad:
        raise GraphError(
            f"adjustment set may not hold {', '.join(bad)}: descendants of "
            f"treatment {treat!r}, itself and the outcome included"
        )
    order = [v for v in g.vertices if v in Ls]
    edges = [(u, v) for i, u in enumerate(order) for v in order[i + 1 :] + [treat, y]]
    vertices = [v for v in g.vertices if v in Ls or v in (treat, y)]
    return Dag(vertices, edges + [(treat, y)], treat, y)


def _mediator_set(g: Dag, mediators: Iterable[str]) -> set[str]:
    """The mediators as a set, checked to be non-empty and to be descendants
    of the treatment other than the treatment and the outcome.  An empty set
    intercepts no path from the treatment to the outcome; the front-door
    formula over it is E[Y], not the interventional mean."""
    Ms = _as_set(g, mediators)
    if not Ms:
        raise GraphError(
            "mediator set is empty: the front-door formula needs at least one mediator"
        )
    held = Ms - (descendants(g, {g.treatment}) - {g.treatment, g.outcome})
    bad = [v for v in g.vertices if v in held]
    if bad:
        raise GraphError(
            f"mediator set may not hold {', '.join(bad)}: mediators are "
            f"descendants of treatment {g.treatment!r} other than itself and the outcome"
        )
    return Ms


def g_functional_exact(bn: DiscreteBn, a: int) -> float:
    """Interventional mean at treatment level ``a`` via the network's own
    truncated factorization."""
    g = bn.graph
    treat, y = g.treatment, g.outcome
    _check_level(bn.cards, treat, a)
    column = bn.cpts[treat][..., a]
    if np.any(column <= 0.0):
        parents = bn.parent_order(treat)
        message = f"P({treat}={a} | {', '.join(parents)}) = 0 on a positive-probability event"
        where = (treat, range(len(parents)))
        _require(marginal(bn, parents), column, PositivityError, message, where)
    factors = cpt_factors(bn, {y}, a) + [((y,), np.arange(bn.cards[y], dtype=float))]
    return float(contract(factors, bn.cards, ()))


def _factors(g: Dag) -> list[tuple[str, tuple[str, ...]]]:
    """The g-formula of ``g`` as ``(child, parents)`` factors, one per
    vertex other than the treatment, in topological order; every route to a
    graph's g-formula reads its factors here."""
    return [(v, g.parent_list(v)) for v in topo_sort(g) if v != g.treatment]


def _g_formula(
    tables: Callable[[list[Sequence[str]]], list[np.ndarray]], labels: Sequence[str],
    cards: Mapping[str, int], factors: Sequence[tuple[str, Sequence[str]]],
    treat: str, y: str, a: int, add: float = 0.0,
) -> float:
    """A truncated factorization, one ``(child, parents)`` factor per summed
    vertex, with the treatment fixed at ``a`` where it is a parent; a
    graph's factors come from :func:`_factors`, in topological order.  Each
    conditional is read from a law, or counts, over the factor's family, its
    axes in ``labels`` order.  ``tables(scopes)`` gives one table per scope:
    while the law over ``labels`` is dense (:func:`_dense`) it is read as
    ``tables([labels])`` and summed down to each family, and past that every
    family's table comes from one call, ``tables(families)``; ``add`` is
    added to each family's table after summing.  The conditionals are
    contracted with Y's values down to a scalar, so no table wider than the
    contraction needs is formed.  This is :class:`_GFormula`'s plan, then
    one evaluation of it.

    A needed conditional on a zero-probability event raises: with the
    treatment among its parents it is a :class:`PositivityError`, otherwise
    a :class:`ZeroConditioningEvent`; the error's ``cell`` is the child with
    the states of its other parents, in their order in the factor.  Where
    several factors need a null event it names the first of them in
    ``factors`` order, and of that factor's needed cells the first in C
    order over those parents taken in ``labels`` order.
    """
    plan = _GFormula(labels, cards, factors, treat, y, a)
    return plan(tables(plan.scopes), add)


class _GFormula:
    """:func:`_g_formula`'s plan, made once: its guards, and each family's
    axes, shape and treatment axis; ``scopes`` are the tables it reads, and
    calling it on them evaluates the formula."""

    def __init__(
        self, labels: Sequence[str], cards: Mapping[str, int],
        factors: Sequence[tuple[str, Sequence[str]]], treat: str, y: str, a: int,
    ):
        dense = _dense(cards, labels)
        _check_level(cards, treat, a)
        for child, parents in factors:  # a family past the guard raises before any table
            check_enumerable(cards[v] for v in (child, *parents))
        fams = [[v for v in labels if v == child or v in parents] for child, parents in factors]
        self.scopes = [labels] if dense else fams
        # over dense labels, the axes each family sums from the one table
        self.drops = None
        if dense:
            self.drops = [tuple(i for i, v in enumerate(labels) if v not in fam) for fam in fams]
        self.cards, self.treat, self.a = cards, treat, a
        self.y_vals = ((y,), np.arange(cards[y], dtype=float))
        self.families = []  # child, parents, shape, treatment axis, axes once it is fixed
        for (child, parents), fam in zip(factors, fams):
            at = fam.index(treat) if treat in parents else None
            axes = tuple(fam) if at is None else (*fam[:at], *fam[at + 1 :])
            self.families.append((child, parents, [cards[v] for v in fam], at, axes))

    def __call__(self, tables: Sequence[np.ndarray], add: float = 0.0) -> float:
        cards, treat, a = self.cards, self.treat, self.a
        nums = tables
        if self.drops is not None:
            nums = [tables[0].sum(axis=drop, keepdims=True) for drop in self.drops]
        conds, undefined = [], []
        for (child, parents, shape, at, axes), num in zip(self.families, nums):
            num = (num + add).reshape(shape)
            if at is not None:
                num = num.take(a, axis=at)
            den = num.sum(axis=axes.index(child), keepdims=True)
            defined = den > 0.0
            if defined.all():
                cond = num / den
            else:
                # undefined cells weigh 1 so that only the defined factors decide
                # whether a configuration, and so the cell, is needed
                cond = _ratio(num, den) + ~defined
                undefined.append((child, parents, axes, den))
            conds.append((axes, cond))
        for child, parents, axes, den in undefined:
            error = PositivityError if treat in parents else ZeroConditioningEvent
            message = f"p({child} | {', '.join(parents)}) at {treat}={a} needs a null event"
            # the product summed down to the other parents: positive where some
            # needed configuration holds their states
            given = [v for v in axes if v != child]
            weight = contract(conds, cards, given)
            where = (child, [given.index(v) for v in parents if v != treat])
            _require(weight, den.reshape(weight.shape), error, message, where)
        return float(contract(conds + [self.y_vals], cards, ()))


def _dense(cards: Mapping[str, int], vertices: Iterable[str]) -> bool:
    """Whether the law over ``vertices`` is small enough to form densely."""
    return math.prod(cards[v] for v in vertices) <= _DENSE_CELLS


def _law_tables(bn: DiscreteBn, scopes: list[Sequence[str]]) -> list[np.ndarray]:
    """The law of ``bn`` over each of ``scopes``: one :func:`marginal`, or
    one calibrated pass (:func:`~causal_reduce.bn.contract_each`) over the
    CPTs that their union needs."""
    if len(scopes) == 1:
        return [marginal(bn, scopes[0])]
    return contract_each(cpt_factors(bn, {v for s in scopes for v in s}), bn.cards, scopes)


def _g_formula_exact(
    bn: DiscreteBn, factors: Sequence[tuple[str, Sequence[str]]], treat: str, y: str, a: int
) -> float:
    """:func:`_g_formula` with ``tables`` the law of ``bn``: each family's
    table is summed from the law over the formula's labels while that is
    dense, and otherwise every family's table comes from one calibrated
    pass over the CPTs (:func:`_law_tables`)."""
    labels = _labels(bn, {treat} | {v for c, pa in factors for v in (c, *pa)})
    return _g_formula(partial(_law_tables, bn), labels, bn.cards, factors, treat, y, a)


def g_functional_for_graph(bn: DiscreteBn, graph: Dag, a: int) -> float:
    """Evaluate ``graph``'s g-formula against the law of ``bn``.

    ``graph.vertices`` may be a subset of the network's vertices, in which
    case the marginal law is used; this computes the reduced-graph
    functional of the marginal law in one step.  Each conditional is read
    from the law over its family, summed from the law over
    ``graph.vertices`` while that has at most 2**14 cells; past that every
    family's table comes from one calibrated pass over the CPTs
    (:func:`~causal_reduce.bn.contract_each`).  The conditionals are
    contracted together: the full graph of a 60-vertex chain answers.
    """
    return _g_formula_exact(bn, _factors(graph), graph.treatment, graph.outcome, a)


def adjustment_exact(bn: DiscreteBn, L: Iterable[str], a: int) -> float:
    """Adjustment formula: sum over l of E[Y | A=a, L=l] P(l), the
    g-formula of G_L (:func:`_adjustment_graph`) by
    :func:`g_functional_for_graph`.  ``L`` holds no descendant of A.  A
    needed P(A=a, L=l) = 0 raises :class:`PositivityError` with cell
    ``('Y', l)``."""
    return g_functional_for_graph(bn, _adjustment_graph(bn.graph, L), a)


def front_door_exact(bn: DiscreteBn, mediators: Iterable[str], a: int) -> float:
    """Front-door formula through the mediator set.

    Inner mixtures over treatment levels are restricted to levels observable
    jointly with the mediator state and renormalized, which only matters for
    degenerate laws; under positivity over (A, mediators) this is exactly the
    standard formula.  The one positivity the formula needs is P(A=a) > 0:
    a mediator state m with P(m | A=a) > 0 is observed with A=a, so its
    mixture always has weight.  Every mediator is a descendant of A other
    than A and Y.
    """
    g = bn.graph
    Ms = _mediator_set(g, mediators)
    treat = g.treatment
    _check_level(bn.cards, treat, a)
    labels, joint = _law_over(bn, Ms | {treat, g.outcome})
    at = labels.index(treat)
    y_vals = _value_axis(labels, bn.cards, g.outcome)

    am_axes = Ms | {treat}
    p_am = _sum_to(joint, labels, am_axes)
    p_a = _sum_to(joint, labels, {treat})
    p_a_at = p_a.take([a], axis=at)
    _require(np.ones(()), p_a_at, ZeroConditioningEvent, f"P({treat}={a}) = 0", (treat, ()))
    p_m_given_a = p_am.take([a], axis=at) / p_a_at
    e_y_am = _ratio(_sum_to(joint * y_vals, labels, am_axes), p_am)
    weights = np.where(p_am > 0.0, p_a, 0.0)
    denom_a = weights.sum(axis=at, keepdims=True)
    inner = _ratio((e_y_am * weights).sum(axis=at, keepdims=True), denom_a)
    return float((p_m_given_a * inner).sum())


# -- efficient influence function -------------------------------------------

def _point(vertices: Sequence[str], cards: Mapping[str, int], v: Sequence[int]) -> dict[str, int]:
    """``v`` by vertex, one state each, checked to be an integer in [0, card)."""
    if len(v) != len(vertices):
        raise GraphError("state tuple length does not match the vertex count")
    for u, s in zip(vertices, v):
        try:
            ok = 0 <= operator.index(s) < cards[u]
        except TypeError:
            ok = False
        if not ok:
            raise GraphError(f"state {s!r} of {u!r} is not an integer in [0, {cards[u]})")
    return {u: operator.index(s) for u, s in zip(vertices, v)}


def _eif_support(graph: Dag, tax: Taxonomy) -> set[str]:
    """The vertices the influence function depends on: A, Y, O, O_min and
    every vertex of W and M with its parents."""
    support = {graph.treatment, graph.outcome} | tax.o | tax.o_min
    for v in tax.w | tax.m:
        support |= graph.parents(v) | {v}
    return support


@dataclass(frozen=True, eq=False)
class EifContext:
    """The efficient influence function at one treatment level under
    ``graph``, family by family: for each v in W and then in M, in
    ``graph``'s vertex order, ``(v, fam, P, diff)`` with ``fam`` v's family
    in the network's declaration order, ``P`` the law over it and ``diff``
    = E[f | pa(v), v] - E[f | pa(v)] on its axes, f = b(O) = E[Y | A=a, O]
    for v in W and f = T = 1{A=a}Y/P(A=a | O_min) for v in M.  The
    influence function is the sum of the differences (Rotnitzky & Smucler
    2020).  ``values`` and ``joint``, the function and the law with one
    axis per vertex of ``graph`` in its order, are formed on first read."""

    bn: DiscreteBn = field(repr=False)
    graph: Dag
    families: tuple[tuple[str, list[str], np.ndarray, np.ndarray], ...] = field(repr=False)

    @classmethod
    def build(cls, bn: DiscreteBn, a: int, graph: Dag | None = None) -> "EifContext":
        """The one pass that forms the families, so each of the influence
        function's errors raises here."""
        graph = graph or bn.graph
        tax = classify(graph)
        treat, y = graph.treatment, graph.outcome
        _check_level(bn.cards, treat, a)
        # one law for b and rho: the dense law over the support U while it
        # is small, which then also gives every family's table; else the
        # law over O ∪ {A, Y}, with the family tables of W and of M each
        # from one calibrated pass over the CPTs and f's stacked factor
        support = _eif_support(graph, tax)
        dense = _dense(bn.cards, support)
        labels, law = _law_over(bn, support if dense else tax.o | {treat, y})

        # b(O) = E[Y | A=a, O] and rho(O_min) = P(A=a | O_min)
        y_vals = _value_axis(labels, bn.cards, y)
        o_a = tax.o | {treat}
        b_arr = _ratio(_sum_to(law * y_vals, labels, o_a), _sum_to(law, labels, o_a))
        b_arr = b_arr.take([a], axis=labels.index(treat))
        ind_a = (_value_axis(labels, bn.cards, treat) == a).astype(float)
        p_omin = _sum_to(law, labels, tax.o_min)
        rho_arr = _ratio(_sum_to(law * ind_a, labels, tax.o_min), p_omin)
        message = f"P({treat}={a} | O_min) = 0 on a positive-probability event"
        _require(p_omin, rho_arr, PositivityError, message, _event(labels, tax.o_min, treat))
        t_arr = _ratio(ind_a * y_vals, rho_arr)

        # each family's table is [P, P·f], stacked on a leading axis
        families = []
        for f_arr, over, group in (
            (b_arr, tax.o, tax.w), (t_arr, tax.o_min | {treat, y}, tax.m)
        ):
            members = [v for v in graph.vertices if v in group]
            if not members:
                continue
            keeps = [graph.parents(v) | {v} for v in members]
            fams = [[u for u in bn.graph.vertices if u in keep] for keep in keeps]
            if dense:
                stacked = np.array([law, law * f_arr])
                tables = [
                    stacked.sum(axis=tuple(i + 1 for i, u in enumerate(labels) if u not in keep))
                    for keep in keeps
                ]
            else:
                stack = max(bn.cards, key=len) + "'"  # longer than every vertex name
                f_axes = tuple(v for v in labels if v in over)
                f = f_arr.reshape([bn.cards[v] for v in f_axes])
                factors = cpt_factors(bn, set(f_axes).union(*keeps))
                factors.append(((stack,) + f_axes, np.array([np.ones_like(f), f])))
                scopes = [[stack] + fam for fam in fams]
                tables = contract_each(factors, {**bn.cards, stack: 2}, scopes)
            for v, fam, (p, pf) in zip(members, fams, tables):
                i = fam.index(v)
                pa_mean = _ratio(pf.sum(axis=i, keepdims=True), p.sum(axis=i, keepdims=True))
                families.append((v, fam, p, _ratio(pf, p) - pa_mean))
        return cls(bn, graph, tuple(families))

    def evaluate(self, v: Sequence[int]) -> float:
        point = _point(self.graph.vertices, self.bn.cards, v)
        return float(sum(diff[tuple(point[u] for u in fam)] for _, fam, _, diff in self.families))

    @cached_property
    def joint(self) -> np.ndarray:
        return marginal(self.bn, self.graph.vertices)

    @cached_property
    def values(self) -> np.ndarray:
        shape = tuple(self.bn.cards[v] for v in self.graph.vertices)
        check_enumerable(shape)
        values = np.zeros(shape)
        for _, fam, _, diff in self.families:
            values += _broadcast_factor(self.graph.vertices, self.bn.cards, fam, diff)
        return values


def eif_variance_terms(bn: DiscreteBn, graph: Dag, a: int) -> dict[str, float]:
    """The per-vertex terms of the variance bound under ``graph``: for each
    v in W and M, in ``graph``'s vertex order, E[term_v^2] = sum P·diff^2
    over v's family in :meth:`EifContext.build`.  Each term has mean zero
    given v's non-descendants, so under a law Markov relative to ``graph``
    the terms are uncorrelated and their sum is the variance of the
    influence function.  An uninformative vertex's term need not be zero."""
    families = EifContext.build(bn, a, graph).families
    terms = {v: float((p * diff * diff).sum()) for v, _, p, diff in families}
    return {v: terms[v] for v in graph.vertices if v in terms}


def eif_variance(bn: DiscreteBn, a: int) -> float:
    """Semiparametric variance bound: variance of the influence function,
    the sum of the network's own :func:`eif_variance_terms`."""
    return sum(eif_variance_terms(bn, bn.graph, a).values())


def eif_variance_for_graph(bn: DiscreteBn, graph: Dag, a: int) -> float:
    """Variance bound computed under ``graph`` for the (marginal) law of the
    network restricted to ``graph.vertices``: the sum of the per-family
    :func:`eif_variance_terms`.  That sum is the bound for a law Markov
    relative to ``graph``, as the network's law is relative to its own
    graph and its marginal is relative to ``reduce(bn.graph).output``.  No
    table over the influence function's whole support is formed past
    2**14 cells; the family tables of W, and then those of M, each come
    from one calibrated pass over the CPTs
    (:func:`~causal_reduce.bn.contract_each`)."""
    return sum(eif_variance_terms(bn, graph, a).values())


def adjustment_if_variance(bn: DiscreteBn, L: Iterable[str], a: int) -> float:
    """Asymptotic variance of the plugin adjustment estimator: the variance
    of its nonparametric influence function, which is the efficient
    influence function under G_L (:func:`_adjustment_graph`), so this is
    :func:`eif_variance_for_graph` on G_L.  G_L is complete, so the bound
    under the network's own graph, :func:`eif_variance`, is at most this.
    ``L`` holds no descendant of A."""
    return eif_variance_for_graph(bn, _adjustment_graph(bn.graph, L), a)


# -- plugin estimators -------------------------------------------------------

def _kept(g: Dag, key: tuple, make: Callable[[], object]) -> object:
    """``make()``, kept on ``g`` under ``key`` for the graph's later calls.
    It is kept per instance, as a plan follows ``g``'s vertex order, which
    an equal graph need not share."""
    kept = vars(g).setdefault("_kept", {})
    if key not in kept:
        kept[key] = make()
    return kept[key]


def _plugin(
    g: Dag, cards: Mapping[str, int], a: int, laplace: float | None = None
) -> Callable[[Dataset], float]:
    """:func:`plugin_g` planned once for ``g``, the cards of its columns and
    the level: the returned ``estimate(dataset)`` only counts and evaluates.
    A count's flat index has no bounds check, so each dataset's states lie
    below ``cards``."""
    plan = _GFormula(list(g.vertices), cards, _factors(g), g.treatment, g.outcome, a)
    shapes = [(scope, [cards[v] for v in scope]) for scope in plan.scopes]
    add = laplace or 0.0

    def estimate(dataset: Dataset) -> float:
        counts = [
            np.bincount(
                _flat_index([dataset.column(v) for v in scope], shape), minlength=math.prod(shape)
            ).reshape(shape)
            for scope, shape in shapes
        ]
        try:
            return plan(counts, add)
        except (PositivityError, ZeroConditioningEvent) as exc:  # an unobserved cell
            message = f"no observations at needed cell {exc.cell}: {exc}"
            raise EmptyCellError(message, exc.cell) from exc

    return estimate


def plugin_g(dataset: Dataset, g: Dag, a: int, laplace: float | None = None) -> float:
    """Maximum-likelihood plugin of the g-formula under ``g``.

    :func:`_g_formula` with ``table`` the counts of the dataset's columns:
    each conditional is read from the counts of its family's columns,
    summed from one count table over ``g``'s columns while that has at most
    2**14 cells and counted on its own past that, and the conditionals are
    contracted together, so no table is wider than the contraction needs: a
    full graph of many covariates (a 26-vertex binary chain: 2**26 cells,
    families of at most 8) gives its plugin, which equals the reduced
    graph's.  The plan that :func:`_plugin` makes for ``g``, the cards and
    the level is kept on ``g``, so a later call only counts and contracts.

    A conditioning cell that carries positive weight but was never observed
    raises :class:`EmptyCellError`, whose ``cell`` is the exact routes'
    cell: the child with the states of its other parents.  Pass ``laplace``
    to add it to every family count instead (the kernel's ``add``, an
    explicit opt-in); it must be finite and at least 0, and 0 adds nothing.
    """
    if laplace is not None and not 0.0 <= laplace < np.inf:
        raise ValueError(f"laplace must be finite and >= 0, got {laplace}")
    # ``Dataset`` holds every state below its declared card, and any other
    # column's card is its max + 1; an undeclared treatment reaches at least
    # level a, so a level that no row shows is an empty cell, not out of range
    cards = {v: dataset.card(v) for v in g.vertices}
    if g.treatment not in dataset.cards:
        cards[g.treatment] = max(cards[g.treatment], a + 1)
    key = ("plugin", tuple(cards.values()), a, laplace or 0.0)
    return _kept(g, key, lambda: _plugin(g, cards, a, laplace))(dataset)


def plugin_adjustment(dataset: Dataset, g: Dag, L: Iterable[str], a: int) -> float:
    """Empirical adjustment estimator: sum over l of mean(Y | A=a, L=l) P_n(l),
    the adjustment formula on the empirical law, which is :func:`plugin_g`
    on G_L (:func:`_adjustment_graph`).  ``L`` holds no descendant of A
    under ``g``.  An L state seen without A=a raises :class:`EmptyCellError`
    with cell ``('Y', l)``.  G_L is kept on ``g``, with its plans."""
    L = tuple(L)
    return plugin_g(dataset, _kept(g, ("G_L", frozenset(L)), lambda: _adjustment_graph(g, L)), a)
