"""Discrete Bayesian networks over a Dag: validation, exact factor
contraction, random law generation and i.i.d. ancestral sampling.

States are integers ``0 .. card-1``.  Every CPT is a dense float array whose
leading axes are the vertex's parents in canonical (topological) order and
whose last axis is the vertex's own state, so a row ``cpt[parent_state]`` is
a distribution over the vertex.  Exact quantities come from :func:`contract`,
which multiplies CPT factors and sums them down to only the vertices a query
needs.  A product of at most ``_DENSE_CELLS`` (2**14) cells is formed in one
``np.einsum`` call.  Any other goes to :func:`contract_each`, the one
elimination: it gives the tables of one or several scopes from one product,
calibrated once by Shafer-Shenoy messages over its elimination cliques, and
refuses before forming any table when a clique is past
``ENUMERATION_LIMIT`` (10**7 cells).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import Dag, GraphError, _reach, topo_sort

__all__ = [
    "DiscreteBn",
    "Dataset",
    "NormalizationError",
    "PositivityError",
    "ZeroConditioningEvent",
    "EnumerationLimitError",
    "joint_table",
    "random_law",
    "sample",
    "derive_seed",
    "bn_to_json",
    "bn_from_json",
    "dataset_to_csv",
    "dataset_from_csv",
]

ENUMERATION_LIMIT = 10_000_000

# A product of at most this many cells is formed whole: contract takes it in
# one np.einsum call instead of contract_each's clique tree, and the
# exact layer sums each family's table from the dense law over the vertices
# a computation reads (the influence function's support U in
# EifContext.build, a g-formula's labels in _g_formula) instead of reading
# them all from one calibrated pass over the CPTs (contract_each).  Dense
# cost grows with the cells, the pass's with the factors and families.  Per
# eif_variance call on a 2-core x86 box (numpy 2.4), the two cross between
# 7 776 and 11 664 cells on a 10-vertex U and near 6 912 on an 11-vertex U.
# For contract, one einsum call up to 2**14 cells made a pass over
# exact_small's items 0.75 as long as variable elimination, level on
# exact_large and simulate; 2**16 was slower on exact_large.  CHANGES.md
# has the timings.
_DENSE_CELLS = 2**14

_ROW_SUM_TOL = 1e-12


class NormalizationError(ValueError):
    """A CPT row does not sum to one (or has entries outside [0, 1])."""


class PositivityError(ValueError):
    """A needed treatment probability is zero on an event of positive
    probability; ``cell`` names that event."""


class ZeroConditioningEvent(ValueError):
    """A needed conditional is on an event of probability zero; ``cell``
    names that event."""


class EnumerationLimitError(ValueError):
    """A table the exact layer would form exceeds the enumeration guard."""


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Documented splitting rule for replication streams:
    ``splitmix64(splitmix64(seed) XOR splitmix64(index))``."""
    return _splitmix64(_splitmix64(seed) ^ _splitmix64(index))


def check_enumerable(cards: Iterable[int]) -> None:
    total = 1
    for c in cards:
        total *= c
        if total > ENUMERATION_LIMIT:
            raise EnumerationLimitError(
                f"a table of more than {ENUMERATION_LIMIT} configurations is needed"
            )


@dataclass(frozen=True, eq=False)
class DiscreteBn:
    """A Dag plus finite state spaces and conditional probability tables.

    Construction checks each CPT's shape, then its entries: one outside
    [0, 1] or a row that does not sum to 1 within 1e-12 raises
    :class:`NormalizationError`."""

    graph: Dag
    cards: dict[str, int]
    cpts: dict[str, np.ndarray]

    def __init__(
        self,
        graph: Dag,
        cards: Mapping[str, int],
        cpts: Mapping[str, np.ndarray | Sequence],
    ):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "cards", dict(cards))
        parents = {v: graph.parent_list(v) for v in graph.vertices}
        object.__setattr__(self, "_parents", parents)
        norm: dict[str, np.ndarray] = {}
        for v in graph.vertices:
            if v not in self.cards:
                raise GraphError(f"missing cardinality for {v!r}")
            if int(self.cards[v]) < 1:
                raise GraphError(f"cardinality of {v!r} must be >= 1")
            self.cards[v] = int(self.cards[v])
            if v not in cpts:
                raise GraphError(f"missing CPT for {v!r}")
            table = np.asarray(cpts[v], dtype=float)
            shape = tuple(self.cards[p] for p in parents[v]) + (self.cards[v],)
            if table.shape != shape:
                raise GraphError(
                    f"CPT for {v!r} has shape {table.shape}, expected {shape} "
                    "(parent axes in topological order, own state last)"
                )
            table = table.copy()
            table.setflags(write=False)
            norm[v] = table
        for v, table in norm.items():
            flat = table.reshape(-1, self.cards[v])
            if not np.all((flat >= 0.0) & (flat <= 1.0)):  # NaN fails too
                raise NormalizationError(f"CPT for {v!r} has entries outside [0, 1]")
            sums = flat.sum(axis=1)
            bad = np.nonzero(np.abs(sums - 1.0) > _ROW_SUM_TOL)[0]
            if bad.size:
                idx = np.unravel_index(int(bad[0]), table.shape[:-1]) if table.ndim > 1 else ()
                raise NormalizationError(
                    f"CPT row for {v!r} at parent state {tuple(int(i) for i in idx)} "
                    f"sums to {sums[bad[0]]:.12g}"
                )
        object.__setattr__(self, "cpts", norm)

    def parent_order(self, v: str) -> tuple[str, ...]:
        return self._parents[v]

    def state_shape(self) -> tuple[int, ...]:
        return tuple(self.cards[v] for v in self.graph.vertices)

    def with_cpt(self, v: str, table: np.ndarray) -> "DiscreteBn":
        """Copy of this network with one CPT replaced."""
        cpts = dict(self.cpts)
        cpts[v] = np.asarray(table, dtype=float)
        return DiscreteBn(self.graph, self.cards, cpts)


# -- exact factor contraction -------------------------------------------------

AxesTable = tuple[tuple[str, ...], np.ndarray]  # a factor: its axes and its table


def _broadcast_factor(
    bn_axes: Sequence[str], cards: Mapping[str, int], factor_axes: Sequence[str], table: np.ndarray
) -> np.ndarray:
    """Expand ``table`` (axes ``factor_axes``) to broadcast over ``bn_axes``."""
    at = [bn_axes.index(v) for v in factor_axes]
    if at != sorted(at):
        table = table.transpose(sorted(range(len(at)), key=at.__getitem__))
    shape = [1] * len(bn_axes)
    for i, v in zip(at, factor_axes):
        shape[i] = cards[v]
    return table.reshape(shape)


def _product(
    factors: Sequence[AxesTable], cards: Mapping[str, int], axes: Sequence[str]
) -> np.ndarray:
    """Dense product of ``factors`` over ``axes``, each of which some factor
    names, refused past the guard."""
    check_enumerable(cards[v] for v in axes)
    total = np.ones(())
    for factor_axes, table in factors:
        total = total * _broadcast_factor(axes, cards, factor_axes, table)
    return total


def _einsum(
    factors: Sequence[AxesTable], cards: Mapping[str, int], keep: Sequence[str],
    index: Mapping[str, int],
) -> np.ndarray:
    """The product of ``factors`` summed down to ``keep`` in one
    ``np.einsum`` call, ``index`` numbering every factor axis and kept
    vertex, each kept vertex named by some factor.  The result is a fresh
    array: einsum may return a view of its one operand."""
    operands = [x for axes, t in factors for x in (t, [index[v] for v in axes])]
    out = np.empty([cards[v] for v in keep])
    return np.einsum(*operands, [index[v] for v in keep], out=out)


def _fits_einsum(labels: Sequence[str], operands: int, cards: Mapping[str, int]) -> bool:
    """Whether a product over ``labels`` of ``operands`` factors goes in one
    einsum call: at most ``_DENSE_CELLS`` cells, and within einsum's limits
    of 52 sublist labels and 31 operands (on numpy 1.x)."""
    return (
        0 < operands < 32
        and len(labels) <= 52
        and math.prod(map(cards.__getitem__, labels)) <= _DENSE_CELLS
    )


def contract(
    factors: Iterable[AxesTable], cards: Mapping[str, int], keep: Sequence[str]
) -> np.ndarray:
    """Product of ``factors`` summed down to ``keep``, distinct vertices,
    one axis per kept vertex in that order; a fresh array, never a view of
    a factor's table.

    A product of at most ``_DENSE_CELLS`` (2**14) cells over every factor
    axis and every kept vertex is formed in one ``np.einsum`` call
    (:func:`_einsum`).  Any other, larger or past einsum's limits of 52
    labels and 31 operands, is ``contract_each(factors, cards, [keep])``:
    its one scope is the root clique, and every other vertex is eliminated
    by the fewest-neighbours rule.
    """
    factors = list(factors)
    named = dict.fromkeys([v for axes, _ in factors for v in axes])
    labels = {**named, **dict.fromkeys(keep)}
    if _fits_einsum(labels, len(factors) + len(labels) - len(named), cards):
        ones = [((v,), np.ones(cards[v])) for v in keep if v not in named]
        return _einsum(factors + ones, cards, keep, dict(zip(labels, range(len(labels)))))
    return contract_each(factors, cards, [keep])[0]


def _sum_down(table: np.ndarray, axes: Sequence[str], keep: Sequence[str]) -> np.ndarray:
    """``table`` (axes ``axes``) summed down to ``keep``, axes in that
    order; a fresh array, as a sum over no axis copies."""
    table = table.sum(axis=tuple(i for i, v in enumerate(axes) if v not in keep))
    rest = [v for v in axes if v in keep]
    return np.asarray(table).transpose([rest.index(v) for v in keep])


def contract_each(
    factors: Iterable[AxesTable], cards: Mapping[str, int], scopes: Iterable[Sequence[str]]
) -> list[np.ndarray]:
    """:func:`contract` of ``factors`` down to each of ``scopes``, from one
    calibrated pass: each table is a fresh array, one axis per vertex of
    its scope in that order.

    Every factor's axes and every scope form a clique of the interaction
    graph.  The vertices in every scope form the root clique and are never
    eliminated; each other vertex is, fewest neighbours first (ties in
    order of first appearance), so one scope gives variable elimination
    down to it.  Vertex v's clique is v and its neighbours when it goes;
    its parent is the clique of the first vertex of its separator (the
    clique without v) to go, or the root.  Each factor and each scope sits
    at the clique of its first-eliminated vertex, or at the root.
    Shafer-Shenoy messages run up the tree in elimination order and down
    it in reverse, each the product of a clique's own factors and of every
    message into it but the receiver's, summed down to the separator; a
    message goes down only to a subtree that holds a scope.  A scope's
    table is its clique's factors and every message into it, summed down
    to the scope, and a scope within a wider one is summed from that one's
    table instead, where every vertex summed is one that some factor
    names.  Nothing is divided, so a null event stays an exact 0.  Every
    clique, the root included, is checked against ``ENUMERATION_LIMIT``
    before any table is formed.  A product within :func:`_fits_einsum`
    over its clique is one :func:`_einsum` call, and any other the
    broadcast :func:`_product` over the clique's vertices its operands
    name, summed down.
    """
    factors = list(factors)
    scopes = [tuple(s) for s in scopes]
    nbrs: dict[str, set[str]] = {}
    for axes in [axes for axes, _ in factors] + scopes:
        for v in axes:
            nbrs.setdefault(v, set()).update(axes)
    first = {v: i for i, v in enumerate(nbrs)}  # order of first appearance
    sets = [set(s) for s in scopes]
    common = set.intersection(*sets) if sets else set()
    for v in common:
        del nbrs[v]
    root = len(nbrs)  # the root clique: the vertices of every scope
    step = dict.fromkeys(common, root)  # vertex -> its clique, numbered in elimination order
    cliques: list[tuple[str, ...]] = []
    while nbrs:
        v = min(nbrs, key=lambda u: len(nbrs[u]))
        around = nbrs.pop(v)
        around.discard(v)
        for u in around:
            if u in nbrs:
                nbrs[u].discard(v)
                nbrs[u].update(around)
        step[v] = len(cliques)
        cliques.append((v, *sorted(around, key=first.__getitem__)))
    cliques.append(tuple(v for v in first if v in common))
    for clique in cliques:
        check_enumerable(cards[v] for v in clique)

    def home(axes: Sequence[str]) -> int:
        return min((step[v] for v in axes), default=root)

    parent = [home(clique[1:]) for clique in cliques[:root]]
    children: list[list[int]] = [[] for _ in cliques]
    for i, p in enumerate(parent):
        children[p].append(i)
    own: list[list[AxesTable]] = [[] for _ in cliques]
    for f in factors:
        own[home(f[0])].append(f)
    # the scopes formed at their cliques, widest first, and the one each
    # other scope is summed from
    named = {v for axes, _ in factors for v in axes}
    formed: list[int] = []
    source: dict[int, int] = {}
    for k in sorted(range(len(scopes)), key=lambda k: -len(scopes[k])):
        wider = next(
            (j for j in formed if sets[k] <= sets[j] and sets[j] - sets[k] <= named), None
        )
        if wider is None:
            formed.append(k)
        else:
            source[k] = wider
    at = [home(scopes[k]) for k in formed]

    def sum_product(i: int, ops: list[AxesTable], keep: Sequence[str]) -> np.ndarray:
        # every vertex of keep is one that ops name
        clique = cliques[i]
        if _fits_einsum(clique, len(ops), cards):
            return _einsum(ops, cards, keep, dict(zip(clique, range(len(clique)))))
        names = {v for axes, _ in ops for v in axes}
        axes = [v for v in clique if v in names]
        return _sum_down(_product(ops, cards, axes), axes, keep)

    up: list[list[AxesTable]] = []  # the message out of each clique, [] for 1
    down: list[list[AxesTable]] = [[] for _ in cliques]  # the message into each

    def gathered(i: int, skip: int = -1) -> list[AxesTable]:
        return own[i] + down[i] + [m for c in children[i] if c != skip for m in up[c]]

    def message(i: int, ops: list[AxesTable], sep: Sequence[str]) -> list[AxesTable]:
        # only the vertices of sep that ops name: the product is constant
        # along any other, so the message need not carry it
        names = {v for axes, _ in ops for v in axes}
        keep = tuple(u for u in sep if u in names)
        return [(keep, sum_product(i, ops, keep))] if ops else []

    for i in range(root):
        up.append(message(i, gathered(i), cliques[i][1:]))
    # a message down to i is needed where i's subtree holds a scope
    needed = [False] * (root + 1)
    for i in at:
        needed[i] = True
    for i in range(root):
        needed[parent[i]] |= needed[i]
    for p in range(root, -1, -1):
        for i in children[p]:
            if needed[i]:
                down[i] = message(p, gathered(p, i), cliques[i][1:])
    tables: dict[int, np.ndarray] = {}
    for i, k in zip(at, formed):
        ops = gathered(i)
        names = {v for axes, _ in ops for v in axes}
        ops += [((v,), np.ones(cards[v])) for v in scopes[k] if v not in names]
        tables[k] = sum_product(i, ops, scopes[k])
    for k, j in source.items():
        tables[k] = _sum_down(tables[j], scopes[j], scopes[k])
    return [tables[k] for k in range(len(scopes))]


def cpt_factors(
    bn: DiscreteBn, keep: Iterable[str], level: int | None = None
) -> list[AxesTable]:
    """The CPTs that a marginal over ``keep`` needs, as ``(axes, table)``
    factors: those of ``keep`` and its ancestors, since every other CPT sums
    out to 1.  With ``level`` the treatment's own factor is left out and its
    axis is fixed at ``level`` wherever it is a parent: the truncated
    factorization, whose ancestors are taken with the treatment's incoming
    edges cut."""
    fixed = bn.graph.treatment if level is not None else None
    need = _reach(bn.graph, keep, up=True, stop={fixed}) - {fixed}
    out = []
    for v in bn.graph.vertices:
        if v not in need:
            continue
        axes, table = bn.parent_order(v) + (v,), bn.cpts[v]
        if fixed in axes:
            i = axes.index(fixed)
            axes, table = axes[:i] + axes[i + 1 :], np.take(table, level, axis=i)
        out.append((axes, table))
    return out


def marginal(bn: DiscreteBn, keep: Sequence[str]) -> np.ndarray:
    """The network's law summed down to ``keep`` (axes in that order)."""
    for v in keep:
        bn.graph._check(v)
    return contract(cpt_factors(bn, keep), bn.cards, keep)


def joint_table(bn: DiscreteBn) -> np.ndarray:
    """Full joint probability array with one axis per vertex, in declaration
    order."""
    return marginal(bn, bn.graph.vertices)


# -- law generation and sampling --------------------------------------------

def random_law(
    g: Dag, cards: Mapping[str, int], seed: int, epsilon: float = 0.01
) -> DiscreteBn:
    """Random full-support law Markov to ``g``.

    Rows are symmetric-Dirichlet draws mixed with the uniform floor
    ``(1 - card * epsilon) * row + epsilon``, so every entry is at least
    ``epsilon``.  Deterministic given ``seed``.
    """
    cards = {v: int(cards[v]) for v in g.vertices}
    for v in g.vertices:
        if epsilon <= 0.0 or epsilon * cards[v] >= 1.0:
            raise ValueError(
                f"epsilon {epsilon} infeasible for cardinality {cards[v]} of {v!r}"
            )
    rng = np.random.default_rng(derive_seed(seed, 0))
    cpts = {}
    for v in g.vertices:
        shape = tuple(cards[p] for p in g.parent_list(v)) + (cards[v],)
        raw = rng.gamma(1.0, 1.0, size=shape)
        rows = raw / raw.sum(axis=-1, keepdims=True)
        cpts[v] = (1.0 - cards[v] * epsilon) * rows + epsilon
    return DiscreteBn(g, cards, cpts)


@dataclass(frozen=True)
class Dataset:
    """Integer-coded observations: one column per vertex label.

    ``rows`` is cast to int64; a float entry that is not a whole number of
    64 bits (a fraction, NaN, inf or past 2**63) is refused, not truncated."""

    columns: tuple[str, ...]
    rows: np.ndarray
    cards: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise ValueError("rows must be an (n, len(columns)) integer array")
        dup = sorted({c for c in self.columns if self.columns.count(c) > 1})
        if dup:
            raise ValueError(f"duplicate column labels {dup}")
        if rows.dtype.kind == "f":
            whole = (np.floor(rows) == rows) & (rows >= -(2.0**63)) & (rows < 2.0**63)
            bad = np.argwhere(~whole)
            if bad.size:
                i, j = bad[0]
                raise ValueError(
                    f"state {float(rows[i, j])!r} in column {self.columns[j]!r} "
                    "is not a 64-bit integer"
                )
        rows = rows.astype(np.int64, copy=False)
        object.__setattr__(self, "rows", rows)
        if rows.size and rows.min() < 0:
            j = int(rows.min(axis=0).argmin())
            raise ValueError(f"negative state {rows[:, j].min()} in column {self.columns[j]!r}")
        for j, name in enumerate(self.columns):
            card = self.cards.get(name)
            if card is not None and rows.size and rows[:, j].max() >= card:
                raise ValueError(f"states of {name!r} outside 0..{card - 1}")

    @property
    def n(self) -> int:
        return int(self.rows.shape[0])

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise GraphError(f"dataset has no column {name!r}")
        return self.rows[:, self.columns.index(name)]

    def card(self, name: str) -> int:
        card = self.cards.get(name)
        if card is None:
            col = self.column(name)
            card = int(col.max()) + 1 if col.size else 1
        return card


def _flat_index(cols: Sequence[np.ndarray], shape: Sequence[int]) -> np.ndarray | None:
    """The C-order flat index of the states ``cols`` in a table of
    ``shape``, by multiply-add: ``np.ravel_multi_index`` without its bounds
    check, for states known to lie in range.  One column is returned as it
    is; no column gives None."""
    flat = None
    for col, card in zip(cols, shape):
        if flat is None:
            flat = col
        else:
            flat = flat * card
            flat += col
    return flat


# A vertex of k states draws its state by counting its k - 1 cumulative
# entries below u: two passes over the draws per entry for a root, whose
# entries are scalars, three for a vertex with parents, whose entries are
# gathered per draw first.  Bisection takes about four passes per halving,
# so it is cheaper past these limits.  Microseconds per vertex at
# n = 10 000 on a 2-core x86 box (numpy 2.4), counting against bisecting,
# best of 9: a root of 4 states 30 against 83, of 8 85-91 against 118-127,
# of 12 140-146 against 162-170, of 14 140-194 against 106-165; a vertex
# with parents of 2 states 17 against 50, of 3 40-63 against 59-90, of 4
# 58-91 against 59-92 and of 8 189 against 121.
_COUNT_ROOT_STATES = 12
_COUNT_CHILD_STATES = 3


def sample(bn: DiscreteBn, n: int, seed: int) -> Dataset:
    """Ancestral sampling of ``n`` i.i.d. rows; reproducible per seed.

    Vertices are drawn in topological order, one ``rng.random(n)`` each,
    into one contiguous row per vertex of a ``(p, n)`` array; the dataset's
    rows are its transpose.  A draw's parent state indexes the CPT's
    cumulative table by the C-order multiply-add over its parents' states.
    Its state is the count of its first k - 1 cumulative entries below u,
    which is the first state whose cumulative entry reaches u, or k - 1 for
    a row whose float sum ends below u.  A root of at most
    ``_COUNT_ROOT_STATES`` states, or a vertex with parents of at most
    ``_COUNT_CHILD_STATES``, counts them; any other finds the same state by
    bisecting the cumulative table, padded with +inf to a power-of-two width,
    in ceil(log2 k) steps.  The cumulative sums are the same float
    additions, in the same order, as those of the earlier sampler that
    gathered each row's CPT entries, so the rows for a seed are those of
    every earlier release.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    at = {v: i for i, v in enumerate(bn.graph.vertices)}
    data = np.empty((len(at), n), dtype=np.int64)
    for v in topo_sort(bn.graph):
        k = bn.cards[v]
        table = bn.cpts[v]
        cum = np.cumsum(table.reshape(-1, k), axis=1)[:, : k - 1]
        # each draw's row of ``cum``; None for a root
        row = _flat_index([data[at[p]] for p in bn.parent_order(v)], table.shape[:-1])
        u = rng.random(n)
        out = data[at[v]]
        if 1 < k <= (_COUNT_ROOT_STATES if row is None else _COUNT_CHILD_STATES):
            for j in range(k - 1):
                entry = cum[0, j] if row is None else cum[:, j].take(row)
                if j:
                    out += entry < u
                else:  # the first comparison writes the count
                    np.less(entry, u, out=out)
            continue
        width = 1 << (k - 1).bit_length()
        padded = np.full((len(cum), width), np.inf)
        padded[:, : k - 1] = cum
        padded = padded.ravel()
        if row is None:
            out[:] = 0
        else:
            np.multiply(row, width, out=out)
        step = width >> 1  # 0 for k = 1: its one state in no step
        while step:
            # padded[step - 1:][out] is padded[out + step - 1], the last entry
            # of the next block of ``step``: jump past the block if it is below u
            out += step * (padded[step - 1 :].take(out) < u)
            step >>= 1
        out &= width - 1  # the offset within the row's block of ``width``
    return Dataset(tuple(bn.graph.vertices), data.T, dict(bn.cards))


# -- serialization -----------------------------------------------------------

def graph_to_json(g: Dag) -> dict:
    """JSON-ready dict of a graph: the ``"graph"`` object of
    :func:`bn_to_json`, and each graph of ``causal-reduce reduce --report``."""
    return {
        "vertices": list(g.vertices),
        "edges": [[u, v] for u, v in g.edges],
        "treatment": g.treatment,
        "outcome": g.outcome,
    }


def bn_to_json(bn: DiscreteBn) -> dict:
    """JSON-ready dict; CPT rows are dense row-major over lexicographic
    parent states (parent axes in topological order)."""
    return {
        "graph": graph_to_json(bn.graph),
        "cards": dict(bn.cards),
        "cpts": {
            v: {
                "parents": list(bn.parent_order(v)),
                "table": bn.cpts[v].reshape(-1, bn.cards[v]).tolist(),
            }
            for v in bn.graph.vertices
        },
    }


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _field(spec: dict, key: str, kind: type, name: str):
    """``spec[key]``, the field ``name`` of a network payload, checked to be
    of JSON type ``kind`` (a bool is no integer); a missing field or one of
    another type raises :class:`GraphError` naming it."""
    value = spec.get(key)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise GraphError(f"network JSON: {name} must be {_JSON_TYPES[kind]}")
    return value


def _strings(items: object, name: str, length: int | None = None) -> list[str]:
    """``items``, the field ``name``, checked to be an array of strings,
    ``length`` of them if given."""
    if not (isinstance(items, list) and all(isinstance(s, str) for s in items)
            and length in (None, len(items))):
        count = f"{length} " if length else ""
        raise GraphError(f"network JSON: {name} must be an array of {count}strings")
    return items


def bn_from_json(payload: dict) -> DiscreteBn:
    """Inverse of :func:`bn_to_json`.  A payload of the wrong shape raises
    :class:`GraphError` naming the field; like every network, the result is
    validated on construction, so a CPT row that does not sum to 1 raises
    :class:`NormalizationError`."""
    if not isinstance(payload, dict):
        raise GraphError("network JSON must be an object")
    gspec = _field(payload, "graph", dict, "graph")
    edges = _field(gspec, "edges", list, "graph.edges")
    g = Dag(
        _strings(gspec.get("vertices"), "graph.vertices"),
        [tuple(_strings(e, f"graph.edges[{i}]", 2)) for i, e in enumerate(edges)],
        _field(gspec, "treatment", str, "graph.treatment"),
        _field(gspec, "outcome", str, "graph.outcome"),
    )
    card_specs = _field(payload, "cards", dict, "cards")
    cards = {v: _field(card_specs, v, int, f"cards.{v}") for v in g.vertices}
    cpt_specs = _field(payload, "cpts", dict, "cpts")
    cpts = {}
    for v in g.vertices:
        spec = _field(cpt_specs, v, dict, f"cpts.{v}")
        declared = tuple(_strings(spec.get("parents", []), f"cpts.{v}.parents"))
        if declared != g.parent_list(v):
            raise GraphError(
                f"CPT parents for {v!r} must be listed in topological order "
                f"{g.parent_list(v)}, got {declared}"
            )
        table = _field(spec, "table", list, f"cpts.{v}.table")
        try:
            table = np.asarray(table, dtype=float)
        except (TypeError, ValueError):
            raise GraphError(f"network JSON: cpts.{v}.table must be an array of numbers") from None
        cpts[v] = table.reshape(tuple(cards[p] for p in declared) + (cards[v],))
    return DiscreteBn(g, cards, cpts)


def load_bn(path: str) -> DiscreteBn:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except RecursionError:
            raise GraphError(f"{path}: network JSON is nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise GraphError(f"{path}: {exc}") from None
    return bn_from_json(payload)


def save_bn(bn: DiscreteBn, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bn_to_json(bn), fh, indent=2)


def dataset_to_csv(ds: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.columns)
        writer.writerows(ds.rows.tolist())


def dataset_from_csv(path: str) -> Dataset:
    """A header of column labels, then one row of integer states per
    observation; blank lines are skipped.  A missing header, a header with
    no rows, or a line that is ragged, not integer, past 64 bits or not
    readable as CSV raises ``ValueError``, as does a file that is not
    UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        why = f"{exc.reason}, byte 0x{raw[exc.start]:02x}"
        raise ValueError(f"{path}, line {line}: not UTF-8 ({why})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = []
    try:
        header = next(reader, None)
        for row in (r for r in reader if r) if header else ():
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, expected {len(header)}")
            states = [int(x) for x in row]
            big = [x for x in states if not -(2**63) <= x < 2**63]
            if big:
                raise ValueError(f"state {big[0]} does not fit in 64 bits")
            rows.append(states)
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    if not header:
        raise ValueError(f"{path}: no header line")
    if not rows:
        raise ValueError(f"{path}: header but no data rows")
    return Dataset(tuple(header), np.asarray(rows, dtype=np.int64))
