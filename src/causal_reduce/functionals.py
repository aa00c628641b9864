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

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bn import (
    Dataset,
    DiscreteBn,
    PositivityError,
    ZeroConditioningEvent,
    check_enumerable,
    contract,
    cpt_factors,
    marginal,
)
from .graph import Dag, GraphError, _as_set, descendants
from .taxonomy import Taxonomy, classify

__all__ = [
    "EstimateReport",
    "EifContext",
    "EmptyCellError",
    "g_functional_exact",
    "g_functional_for_graph",
    "adjustment_exact",
    "front_door_exact",
    "eif_exact",
    "eif_variance",
    "eif_variance_for_graph",
    "adjustment_if_variance",
    "plugin_g",
    "plugin_adjustment",
]


class EmptyCellError(ValueError):
    """A plugin estimator needed a conditional cell with no observations."""

    def __init__(self, message: str, cells: list[tuple[str, tuple[int, ...]]]):
        super().__init__(message)
        self.cells = cells


@dataclass(frozen=True)
class EstimateReport:
    """An estimator's value on a dataset of ``n`` rows."""

    estimator: str
    value: float
    n: int


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


def _expect_given(
    joint: np.ndarray, labels: Sequence[str], f_arr: np.ndarray, given: Iterable[str]
) -> np.ndarray:
    """E[f | given] as a broadcastable array (keepdims); zero off-support."""
    given = set(given)
    return _ratio(_sum_to(joint * f_arr, labels, given), _sum_to(joint, labels, given))


def _value_axis(labels: Sequence[str], cards: Mapping[str, int], v: str) -> np.ndarray:
    """State values of ``v`` (0..card-1) broadcast along its axis."""
    shape = [1] * len(labels)
    shape[labels.index(v)] = cards[v]
    return np.arange(cards[v], dtype=float).reshape(shape)


def _indicator(
    labels: Sequence[str], cards: Mapping[str, int], v: str, a: int
) -> np.ndarray:
    """1{v = a} broadcast along the axis of ``v``."""
    return (_value_axis(labels, cards, v) == a).astype(float)


def _law_over(bn: DiscreteBn, vertices: Iterable[str]) -> tuple[list[str], np.ndarray]:
    """The network's marginal over ``vertices``, axes in declaration order."""
    wanted = _as_set(bn.graph, vertices)
    labels = [v for v in bn.graph.vertices if v in wanted]
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
    law: Callable[[set[str]], np.ndarray], labels: Sequence[str], cards: Mapping[str, int],
    factors: Sequence[tuple[str, Sequence[str]]], treat: str, y: str, a: int,
) -> float:
    """A truncated factorization, one ``(child, parents)`` factor per summed
    vertex, with the treatment fixed at ``a`` where it is a parent.  Each
    conditional is read from ``law(keep)``: a law, or counts, over the
    formula's ``labels`` summed down to ``keep`` (the other axes kept as
    size 1).

    A needed conditional on a zero-probability event raises: with the
    treatment among its parents it is a :class:`PositivityError`, otherwise
    a :class:`ZeroConditioningEvent`; the error's ``cell`` is the child with
    the states of its other parents, in their order in the factor.
    """
    _check_level(cards, treat, a)
    check_enumerable(cards[v] for v in labels if v != treat)
    total = np.ones([1] * len(labels))
    undefined = []
    for child, parents in factors:
        num = law({child, *parents})
        if treat in parents:
            num = num.take([a], axis=labels.index(treat))
        den = num.sum(axis=labels.index(child), keepdims=True)
        defined = den > 0.0
        if defined.all():
            cond = num / den
        else:
            # undefined cells weigh 1 so that only the defined factors decide
            # whether a configuration, and so the cell, is needed
            cond = _ratio(num, den) + ~defined
            undefined.append((child, tuple(parents), den))
        total = total * cond
    for child, parents, den in undefined:
        error = PositivityError if treat in parents else ZeroConditioningEvent
        message = f"p({child} | {', '.join(parents)}) at {treat}={a} needs a null event"
        given = [labels.index(v) for v in parents if v != treat]
        _require(total, den, error, message, (child, given))
    return float((total * _value_axis(labels, cards, y)).sum())


def _g_formula_exact(
    bn: DiscreteBn, factors: Sequence[tuple[str, Sequence[str]]], treat: str, y: str, a: int
) -> float:
    """:func:`_g_formula` read from the law of ``bn`` over its vertices."""
    labels, joint = _law_over(bn, {treat} | {v for c, pa in factors for v in (c, *pa)})
    return _g_formula(partial(_sum_to, joint, labels), labels, bn.cards, factors, treat, y, a)


def g_functional_for_graph(bn: DiscreteBn, graph: Dag, a: int) -> float:
    """Evaluate ``graph``'s g-formula against the law of ``bn``.

    ``graph.vertices`` may be a subset of the network's vertices, in which
    case the marginal law is used; this computes the reduced-graph
    functional of the marginal law in one step.
    """
    treat = graph.treatment
    factors = [(v, graph.parent_list(v)) for v in graph.vertices if v != treat]
    return _g_formula_exact(bn, factors, treat, graph.outcome, a)


def _adjustment(
    labels: Sequence[str], joint: np.ndarray, Ls: set[str], treat: str, y: str, a: int
) -> float:
    """Sum over l of E[Y | A=a, L=l] P(l), with ``joint`` the law over
    ``labels`` = L ∪ {A, Y}.  A needed P(A=a, L=l) = 0 raises
    :class:`ZeroConditioningEvent`, whose ``cell`` is L with the state l
    (:func:`_event`)."""
    cards = dict(zip(labels, joint.shape))
    _check_level(cards, treat, a)
    Ls = [v for v in labels if v in Ls]
    y_vals = _value_axis(labels, cards, y)
    p_l = _sum_to(joint, labels, Ls)
    at_a = np.take(joint, [a], axis=labels.index(treat))
    den = _sum_to(at_a, labels, Ls)
    message = f"P({treat}={a}, L=l) = 0 for some l with P(l) > 0"
    _require(p_l, den, ZeroConditioningEvent, message, _event(labels, Ls, treat))
    return float((_ratio(_sum_to(at_a * y_vals, labels, Ls), den) * p_l).sum())


def adjustment_exact(bn: DiscreteBn, L: Iterable[str], a: int) -> float:
    """Adjustment formula: sum over l of E[Y | A=a, L=l] P(l).  ``L`` holds
    no descendant of A."""
    g = bn.graph
    Ls = _adjustment_set(g, L)
    labels, joint = _law_over(bn, Ls | {g.treatment, g.outcome})
    return _adjustment(labels, joint, Ls, g.treatment, g.outcome, a)


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

@dataclass(frozen=True)
class EifContext:
    """The efficient influence function at one treatment level: its value
    at every configuration of ``graph``'s vertices, with the law there."""

    graph: Dag
    values: np.ndarray = field(repr=False)
    joint: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, bn: DiscreteBn, a: int, graph: Dag | None = None) -> "EifContext":
        """Dense context: ``values`` and ``joint`` have one axis per vertex of
        ``graph`` (the network's own graph by default), in its order."""
        graph = graph or bn.graph
        joint = marginal(bn, graph.vertices)
        return _build_context(graph, classify(graph), bn.cards, graph.vertices, joint, a)

    def evaluate(self, v: Sequence[int]) -> float:
        if len(v) != len(self.graph.vertices):
            raise GraphError("state tuple length does not match the vertex count")
        return float(self.values[tuple(int(s) for s in v)])


def _build_context(
    graph: Dag, tax: Taxonomy, cards: Mapping[str, int], labels: Sequence[str],
    joint: np.ndarray, a: int,
) -> EifContext:
    """The influence function over the axes ``labels`` of ``joint``, which
    must hold the function's support (:func:`_eif_support`)."""
    treat, outcome = graph.treatment, graph.outcome
    _check_level(cards, treat, a)
    y_vals = _value_axis(labels, cards, outcome)

    # b(O) = E[Y | A=a, O]
    b_arr = _expect_given(joint, labels, y_vals, tax.o | {treat})
    b_arr = b_arr.take([a], axis=labels.index(treat))

    # rho(O_min) = P(A=a | O_min)
    ind_a = _indicator(labels, cards, treat, a)
    p_omin = _sum_to(joint, labels, tax.o_min)
    rho_arr = _ratio(_sum_to(joint * ind_a, labels, tax.o_min), p_omin)
    message = f"P({treat}={a} | O_min) = 0 on a positive-probability event"
    _require(p_omin, rho_arr, PositivityError, message, _event(labels, tax.o_min, treat))
    t_arr = _ratio(ind_a * y_vals, rho_arr)

    # E[f | pa(v), v] - E[f | pa(v)], with f = b for v in W and T for v in M
    eif = np.zeros([1] * len(labels))
    for f_arr, group in ((b_arr, tax.w), (t_arr, tax.m)):
        weighted = joint * f_arr if group else None
        for v in (u for u in labels if u in group):
            keep, i = graph.parents(v) | {v}, labels.index(v)
            num, den = _sum_to(weighted, labels, keep), _sum_to(joint, labels, keep)
            eif = eif + _ratio(num, den)
            num, den = num.sum(axis=i, keepdims=True), den.sum(axis=i, keepdims=True)
            eif = eif - _ratio(num, den)
    eif = np.broadcast_to(eif, joint.shape).copy()
    return EifContext(graph, values=eif, joint=joint)


def eif_exact(
    bn: DiscreteBn, a: int, v: Sequence[int], context: EifContext | None = None
) -> float:
    """Efficient influence function at one configuration.

    Values are meaningful at support points of the law; off-support behavior
    is unspecified.  Pass a prebuilt ``context`` to amortize the tables.
    """
    ctx = context or EifContext.build(bn, a)
    return ctx.evaluate(v)


def _eif_support(graph: Dag, tax: Taxonomy) -> set[str]:
    """The vertices the influence function depends on: A, Y, O, O_min and
    every vertex of W and M with its parents."""
    support = {graph.treatment, graph.outcome} | tax.o | tax.o_min
    for v in tax.w | tax.m:
        support |= graph.parents(v) | {v}
    return support


def _eif_variance(bn: DiscreteBn, graph: Dag, a: int) -> float:
    tax = classify(graph)
    labels, joint = _law_over(bn, _eif_support(graph, tax))
    ctx = _build_context(graph, tax, bn.cards, labels, joint, a)
    return float((ctx.joint * ctx.values**2).sum())


def eif_variance(bn: DiscreteBn, a: int) -> float:
    """Semiparametric variance bound: variance of the influence function."""
    return _eif_variance(bn, bn.graph, a)


def eif_variance_for_graph(bn: DiscreteBn, graph: Dag, a: int) -> float:
    """Variance bound computed under ``graph`` for the (marginal) law of the
    network restricted to ``graph.vertices``."""
    return _eif_variance(bn, graph, a)


def adjustment_if_variance(bn: DiscreteBn, L: Iterable[str], a: int) -> float:
    """Asymptotic variance of the plugin adjustment estimator: the variance
    of its nonparametric influence function.  ``L`` holds no descendant of A."""
    g = bn.graph
    Ls = _adjustment_set(g, L)
    _check_level(bn.cards, g.treatment, a)
    labels, joint = _law_over(bn, Ls | {g.treatment, g.outcome})
    y_vals = _value_axis(labels, bn.cards, g.outcome)
    ind_a = _indicator(labels, bn.cards, g.treatment, a)
    b_l = _expect_given(joint, labels, y_vals, Ls | {g.treatment})
    b_l = b_l.take([a], axis=labels.index(g.treatment))
    p_l = _sum_to(joint, labels, Ls)
    e_l = _ratio(_sum_to(joint * ind_a, labels, Ls), p_l)
    message = f"P({g.treatment}={a} | L) = 0 on a positive-probability event"
    _require(p_l, e_l, ZeroConditioningEvent, message, _event(labels, Ls, g.treatment))
    psi = float((b_l * p_l).sum())
    phi = _ratio(ind_a, e_l) * (y_vals - b_l) + b_l - psi
    return float((joint * phi**2).sum())


# -- plugin estimators -------------------------------------------------------

def _counts(
    ds: Dataset, labels: Sequence[str], cards: Mapping[str, int], keep: Iterable[str],
    add: float = 0.0,
) -> np.ndarray:
    """The counts of the states of the ``keep`` columns of ``ds``, plus
    ``add``, as a table over ``labels`` with the other axes kept as size 1."""
    axes = [v for v in labels if v in keep]
    shape = [cards[v] for v in axes]
    flat = np.ravel_multi_index([ds.column(v) for v in axes], shape)
    counts = np.bincount(flat, minlength=int(np.prod(shape))) + add
    return counts.reshape([cards[v] if v in keep else 1 for v in labels])


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
        raise EmptyCellError(message, [exc.cell]) from exc


def plugin_g(
    dataset: Dataset, g: Dag, a: int, laplace: float | None = None
) -> EstimateReport:
    """Maximum-likelihood plugin of the g-formula under ``g``.

    The g-formula kernel with each conditional read from the counts of its
    family's columns.  A conditioning cell that carries positive weight but
    was never observed raises :class:`EmptyCellError`, whose ``cells`` hold
    the child with the state of its other parents; pass ``laplace`` to add
    it to every family count instead (explicit opt-in); it must be finite
    and at least 0, and 0 adds nothing.
    """
    if laplace is not None and not 0.0 <= laplace < np.inf:
        raise ValueError(f"laplace must be finite and >= 0, got {laplace}")
    labels = list(g.vertices)
    cards = _data_cards(dataset, labels, g.treatment, a)
    law = partial(_counts, dataset, labels, cards, add=laplace or 0.0)
    factors = [(v, g.parent_list(v)) for v in labels if v != g.treatment]
    with _empty_cells():
        value = _g_formula(law, labels, cards, factors, g.treatment, g.outcome, a)
    return EstimateReport("g_formula", value, dataset.n)


def plugin_adjustment(
    dataset: Dataset, g: Dag, L: Iterable[str], a: int
) -> EstimateReport:
    """Empirical adjustment estimator: sum over l of mean(Y | A=a, L=l) P_n(l),
    the adjustment formula on the empirical law.  ``L`` holds no descendant
    of A under ``g``.  An L state seen without A=a raises
    :class:`EmptyCellError`."""
    Ls = _adjustment_set(g, L)
    labels = [v for v in g.vertices if v in Ls | {g.treatment, g.outcome}]
    cards = _data_cards(dataset, labels, g.treatment, a)
    joint = _counts(dataset, labels, cards, labels) / dataset.n
    with _empty_cells():
        value = _adjustment(labels, joint, Ls, g.treatment, g.outcome, a)
    return EstimateReport("adjustment", value, dataset.n)
