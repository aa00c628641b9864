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
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bn import (
    Dataset,
    DiscreteBn,
    PositivityError,
    ZeroConditioningEvent,
    _broadcast_factor,
    check_enumerable,
    contract,
    cpt_factors,
    marginal,
)
from .graph import Dag, GraphError, _as_set, descendants
from .taxonomy import Taxonomy, classify

__all__ = [
    "EifContext",
    "EmptyCellError",
    "g_functional_exact",
    "g_functional_for_graph",
    "adjustment_exact",
    "front_door_exact",
    "eif_exact",
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


def _adjustment_set(g: Dag, L: Iterable[str]) -> set[str]:
    """``L`` as a set, checked to hold no descendant of the treatment, so
    neither the treatment nor the outcome."""
    Ls = _as_set(g, L)
    held = Ls & descendants(g, {g.treatment})
    bad = [v for v in g.vertices if v in held]
    if bad:
        raise GraphError(
            f"adjustment set may not hold {', '.join(bad)}: descendants of "
            f"treatment {g.treatment!r}, itself and the outcome included"
        )
    return Ls


def _adjustment_graph(g: Dag, L: Iterable[str]) -> Dag:
    """G_L, the graph whose g-formula is the adjustment formula over ``L``:
    its vertices are ``L`` and the treatment and outcome, in ``g``'s order;
    ``L`` is complete in that order, each of its vertices is a parent of the
    treatment and of the outcome, and the treatment is a parent of the
    outcome.  G_L is complete, so every law is Markov relative to it.
    ``L`` holds no descendant of the treatment."""
    Ls = _adjustment_set(g, L)
    treat, y = g.treatment, g.outcome
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


def _g_formula(
    law: Callable[[list[str]], np.ndarray], labels: Sequence[str], cards: Mapping[str, int],
    factors: Sequence[tuple[str, Sequence[str]]], treat: str, y: str, a: int,
) -> float:
    """A truncated factorization, one ``(child, parents)`` factor per summed
    vertex, with the treatment fixed at ``a`` where it is a parent.  Each
    conditional is read from ``law(family)``: a law, or counts, over the
    factor's family, its axes in ``labels`` order (the other labels' axes
    may be kept as size 1).  The conditionals are contracted with Y's values
    down to a scalar, so no table wider than the contraction needs is
    formed.

    A needed conditional on a zero-probability event raises: with the
    treatment among its parents it is a :class:`PositivityError`, otherwise
    a :class:`ZeroConditioningEvent`; the error's ``cell`` is the child with
    the states of its other parents, in their order in the factor, and of
    the needed cells it is the first in C order over those parents taken in
    ``labels`` order.
    """
    _check_level(cards, treat, a)
    for child, parents in factors:  # a family past the guard raises before any table
        check_enumerable(cards[v] for v in (child, *parents))
    conds, undefined = [], []
    for child, parents in factors:
        fam = [v for v in labels if v == child or v in parents]
        num = law(fam).reshape([cards[v] for v in fam])
        if treat in parents:
            num = num.take(a, axis=fam.index(treat))
            fam.remove(treat)
        den = num.sum(axis=fam.index(child), keepdims=True)
        defined = den > 0.0
        if defined.all():
            cond = num / den
        else:
            # undefined cells weigh 1 so that only the defined factors decide
            # whether a configuration, and so the cell, is needed
            cond = _ratio(num, den) + ~defined
            undefined.append((child, tuple(parents), fam, den))
        conds.append((tuple(fam), cond))
    for child, parents, fam, den in undefined:
        error = PositivityError if treat in parents else ZeroConditioningEvent
        message = f"p({child} | {', '.join(parents)}) at {treat}={a} needs a null event"
        # the product summed down to the other parents: positive where some
        # needed configuration holds their states
        given = [v for v in fam if v != child]
        weight = contract(conds, cards, given)
        where = (child, [given.index(v) for v in parents if v != treat])
        _require(weight, den.reshape(weight.shape), error, message, where)
    y_vals = ((y,), np.arange(cards[y], dtype=float))
    return float(contract(conds + [y_vals], cards, ()))


# Past this many cells of the law over the vertices a computation reads, the
# exact layer contracts each family's table from the CPTs instead of summing
# it from that law: the influence function's support U in _eif_families,
# a g-formula's labels in _g_formula_exact.  Dense cost grows with those
# cells, contraction cost with the number of families.  Per eif_variance
# call, on a 2-core x86 box (numpy 2.4): at 972 cells (7 vertices in U) dense
# took 0.50-0.70 ms and contraction 0.98-1.43 ms; at 59 049 cells (10
# vertices) dense took 8.8-14.4 ms and contraction 3.0-3.2 ms.  The two
# crossed between 4 608 and 10 368 cells on an 11-vertex U and between 5 184
# and 11 664 on a 10-vertex U.  For the g-formula, one law over the labels
# summed per family, against one contraction per family, took the
# benchmark's exact_small workload (laws of at most 8 vertices) from 539 to
# 599 items/s on the same box, median of 10 alternated 25 s pairs, better
# in 8 of them.
_DENSE_CELLS = 2**14


def _dense(cards: Mapping[str, int], vertices: Iterable[str]) -> bool:
    """Whether the law over ``vertices`` is small enough to form densely."""
    return math.prod(cards[v] for v in vertices) <= _DENSE_CELLS


def _family_tables(
    cards: Mapping[str, int], labels: Sequence[str],
    table: Callable[[Sequence[str]], np.ndarray], add: float = 0.0,
) -> Callable[[list[str]], np.ndarray]:
    """The ``law`` of :func:`_g_formula`: ``table(labels)``, a law or counts
    over the formula's labels, summed down to each family while it is dense,
    and ``table(family)`` on its own past that; ``add`` is added to each
    family's table after summing."""
    if _dense(cards, labels):
        whole = table(labels)
        return lambda fam: _sum_to(whole, labels, fam) + add
    return lambda fam: table(fam) + add


def _g_formula_exact(
    bn: DiscreteBn, factors: Sequence[tuple[str, Sequence[str]]], treat: str, y: str, a: int
) -> float:
    """:func:`_g_formula` read from the law of ``bn``: each family's table is
    summed from the law over the formula's labels while that is dense, and
    otherwise contracted from the CPTs on its own."""
    labels = _labels(bn, {treat} | {v for c, pa in factors for v in (c, *pa)})
    law = _family_tables(bn.cards, labels, partial(marginal, bn))
    return _g_formula(law, labels, bn.cards, factors, treat, y, a)


def g_functional_for_graph(bn: DiscreteBn, graph: Dag, a: int) -> float:
    """Evaluate ``graph``'s g-formula against the law of ``bn``.

    ``graph.vertices`` may be a subset of the network's vertices, in which
    case the marginal law is used; this computes the reduced-graph
    functional of the marginal law in one step.  Each conditional is read
    from the law over its family, summed from the law over
    ``graph.vertices`` while that has at most 2**14 cells and contracted
    from the CPTs past that, and the conditionals are contracted together:
    the full graph of a 60-vertex chain answers.
    """
    treat = graph.treatment
    factors = [(v, graph.parent_list(v)) for v in graph.vertices if v != treat]
    return _g_formula_exact(bn, factors, treat, graph.outcome, a)


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


@dataclass(frozen=True, eq=False)
class EifContext:
    """The efficient influence function at one treatment level under
    ``graph``, held as :func:`_eif_families`' ``(fam, diff)`` pairs.
    ``values`` and ``joint``, the function and the law with one axis per
    vertex of ``graph`` in its order, are formed on first read."""

    bn: DiscreteBn = field(repr=False)
    graph: Dag
    families: tuple[tuple[list[str], np.ndarray], ...] = field(repr=False)

    @classmethod
    def build(cls, bn: DiscreteBn, a: int, graph: Dag | None = None) -> "EifContext":
        """One pass of :func:`_eif_families`, so each of its errors raises here."""
        graph = graph or bn.graph
        return cls(bn, graph, tuple((f, d) for _, f, _, d in _eif_families(bn, graph, a)))

    def evaluate(self, v: Sequence[int]) -> float:
        point = _point(self.graph.vertices, self.bn.cards, v)
        return float(sum(diff[tuple(point[u] for u in fam)] for fam, diff in self.families))

    @cached_property
    def joint(self) -> np.ndarray:
        return marginal(self.bn, self.graph.vertices)

    @cached_property
    def values(self) -> np.ndarray:
        values = np.zeros(self.joint.shape)
        for fam, diff in self.families:
            values += _broadcast_factor(self.graph.vertices, self.bn.cards, fam, diff)
        return values


def eif_exact(bn: DiscreteBn, a: int, v: Sequence[int]) -> float:
    """Efficient influence function at one configuration ``v`` of the
    network's vertices; meaningful at support points of the law."""
    return EifContext.build(bn, a).evaluate(v)


def _eif_support(graph: Dag, tax: Taxonomy) -> set[str]:
    """The vertices the influence function depends on: A, Y, O, O_min and
    every vertex of W and M with its parents."""
    support = {graph.treatment, graph.outcome} | tax.o | tax.o_min
    for v in tax.w | tax.m:
        support |= graph.parents(v) | {v}
    return support


def _eif_families(
    bn: DiscreteBn, graph: Dag, a: int
) -> Iterator[tuple[str, list[str], np.ndarray, np.ndarray]]:
    """The influence function under ``graph`` family by family: for each v
    in W and then in M, in ``graph``'s vertex order, ``(v, fam, P, diff)``
    with ``fam`` v's family in the network's declaration order, ``P`` the
    law over it and ``diff`` = E[f | pa(v), v] - E[f | pa(v)] on its axes,
    f = b(O) = E[Y | A=a, O] for v in W and f = T = 1{A=a}Y/P(A=a | O_min)
    for v in M.  The influence function is the sum of the differences
    (Rotnitzky & Smucler 2020)."""
    tax = classify(graph)
    treat, y = graph.treatment, graph.outcome
    _check_level(bn.cards, treat, a)
    # one law for b and rho: the dense law over the support U while it is
    # small, which then also gives every family's table; else the law over
    # O ∪ {A, Y}, with each family's table contracted from the CPTs
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
    for f_arr, over, group in (
        (b_arr, tax.o, tax.w), (t_arr, tax.o_min | {treat, y}, tax.m)
    ):
        members = [v for v in graph.vertices if v in group]
        if not members:
            continue
        if dense:
            stacked = np.array([law, law * f_arr])
        else:
            stack = max(bn.cards, key=len) + "'"  # longer than every vertex name
            cards = {**bn.cards, stack: 2}
            f_axes = tuple(v for v in labels if v in over)
            f = f_arr.reshape([bn.cards[v] for v in f_axes])
            f_factor = ((stack,) + f_axes, np.array([np.ones_like(f), f]))
        for v in members:
            keep = graph.parents(v) | {v}
            fam = [u for u in bn.graph.vertices if u in keep]
            if dense:
                drop = tuple(i + 1 for i, u in enumerate(labels) if u not in keep)
                p, pf = stacked.sum(axis=drop)
            else:
                factors = cpt_factors(bn, keep | set(f_axes)) + [f_factor]
                p, pf = contract(factors, cards, [stack] + fam)
            i = fam.index(v)
            pa_mean = _ratio(pf.sum(axis=i, keepdims=True), p.sum(axis=i, keepdims=True))
            yield v, fam, p, _ratio(pf, p) - pa_mean


def eif_variance_terms(bn: DiscreteBn, graph: Dag, a: int) -> dict[str, float]:
    """The per-vertex terms of the variance bound under ``graph``: for each
    v in W and M, in ``graph``'s vertex order, E[term_v^2] with term_v the
    difference :func:`_eif_families` gives for v.  Each term has mean zero
    given v's non-descendants, so under a law Markov relative to ``graph``
    the terms are uncorrelated and their sum is the variance of the
    influence function.  An uninformative vertex's term need not be zero."""
    terms = {v: float((p * diff * diff).sum()) for v, _, p, diff in _eif_families(bn, graph, a)}
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
    2**14 cells; each family's table is then contracted from the CPTs."""
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

def _counts(ds: Dataset, axes: Sequence[str], cards: Mapping[str, int]) -> np.ndarray:
    """The counts of the states of the ``axes`` columns of ``ds``, one axis
    per column in that order; refused past the guard."""
    shape = [cards[v] for v in axes]
    check_enumerable(shape)
    flat = np.ravel_multi_index([ds.column(v) for v in axes], shape)
    return np.bincount(flat, minlength=math.prod(shape)).reshape(shape)


def _data_cards(ds: Dataset, labels: Sequence[str], treat: str, a: int) -> dict[str, int]:
    """The cardinality of each of ``labels`` in ``ds``.  An undeclared
    treatment reaches at least level ``a``: a level that no row shows is an
    empty cell, not a level out of range."""
    cards = {v: ds.card(v) for v in labels}
    if treat not in ds.cards:
        cards[treat] = max(cards[treat], a + 1)
    return cards


@contextmanager
def _empty_cells() -> Iterator[None]:
    """Re-raise a kernel's null-event error, met on counts, as the
    :class:`EmptyCellError` of an unobserved cell."""
    try:
        yield
    except (PositivityError, ZeroConditioningEvent) as exc:
        message = f"no observations at needed cell {exc.cell}: {exc}"
        raise EmptyCellError(message, exc.cell) from exc


def plugin_g(dataset: Dataset, g: Dag, a: int, laplace: float | None = None) -> float:
    """Maximum-likelihood plugin of the g-formula under ``g``.

    The g-formula kernel with each conditional read from the counts of its
    family's columns, summed from one count table over ``g``'s columns while
    that has at most 2**14 cells and counted on its own past that, and the
    conditionals contracted together, so no table is wider than the
    contraction needs: a full graph of many covariates (a 26-vertex binary
    chain: 2**26 cells, families of at most 8) gives its plugin, which
    equals the reduced graph's.

    A conditioning cell that carries positive weight but was never observed
    raises :class:`EmptyCellError`, whose ``cell`` is the exact routes'
    cell: the child with the states of its other parents.  Pass ``laplace``
    to add it to every family count instead (explicit opt-in); it must be
    finite and at least 0, and 0 adds nothing.
    """
    if laplace is not None and not 0.0 <= laplace < np.inf:
        raise ValueError(f"laplace must be finite and >= 0, got {laplace}")
    labels = list(g.vertices)
    cards = _data_cards(dataset, labels, g.treatment, a)
    law = _family_tables(cards, labels, partial(_counts, dataset, cards=cards), laplace or 0.0)
    factors = [(v, g.parent_list(v)) for v in labels if v != g.treatment]
    with _empty_cells():
        return _g_formula(law, labels, cards, factors, g.treatment, g.outcome, a)


def plugin_adjustment(dataset: Dataset, g: Dag, L: Iterable[str], a: int) -> float:
    """Empirical adjustment estimator: sum over l of mean(Y | A=a, L=l) P_n(l),
    the adjustment formula on the empirical law, which is :func:`plugin_g`
    on G_L (:func:`_adjustment_graph`).  ``L`` holds no descendant of A
    under ``g``.  An L state seen without A=a raises :class:`EmptyCellError`
    with cell ``('Y', l)``."""
    return plugin_g(dataset, _adjustment_graph(g, L), a)
