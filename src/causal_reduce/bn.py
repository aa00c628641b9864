"""Discrete Bayesian networks over a Dag: validation, exact factor
contraction, random law generation and i.i.d. ancestral sampling.

States are integers ``0 .. card-1``.  Every CPT is a dense float array whose
leading axes are the vertex's parents in canonical (topological) order and
whose last axis is the vertex's own state, so a row ``cpt[parent_state]`` is
a distribution over the vertex.  Exact quantities come from :func:`contract`,
which multiplies CPT factors and sums them down to only the vertices a query
needs, one variable at a time; ``ENUMERATION_LIMIT`` (10**7 cells) bounds the
largest table it forms on the way.
"""

from __future__ import annotations

import csv
import json
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
    "ENUMERATION_LIMIT",
    "validate",
    "joint_table",
    "cpt_factors",
    "contract",
    "marginal",
    "random_law",
    "sample",
    "derive_seed",
    "graph_to_json",
    "bn_to_json",
    "bn_from_json",
    "dataset_to_csv",
    "dataset_from_csv",
]

ENUMERATION_LIMIT = 10_000_000

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

    Construction checks each CPT's shape, then runs :func:`validate`: an
    entry outside [0, 1] or a row that does not sum to 1 within 1e-12
    raises :class:`NormalizationError`."""

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
        object.__setattr__(self, "cpts", norm)
        validate(self)

    def parent_order(self, v: str) -> tuple[str, ...]:
        return self._parents[v]

    def state_shape(self) -> tuple[int, ...]:
        return tuple(self.cards[v] for v in self.graph.vertices)

    def with_cpt(self, v: str, table: np.ndarray) -> "DiscreteBn":
        """Copy of this network with one CPT replaced."""
        cpts = dict(self.cpts)
        cpts[v] = np.asarray(table, dtype=float)
        return DiscreteBn(self.graph, self.cards, cpts)


def validate(bn: DiscreteBn) -> None:
    """Check that every CPT entry lies in [0, 1] and every row sums to 1."""
    for v in bn.graph.vertices:
        table = bn.cpts[v]
        flat = table.reshape(-1, bn.cards[v])
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
    """Dense product of ``factors`` over ``axes``, refused past the guard."""
    shape = tuple(cards[v] for v in axes)
    check_enumerable(shape)
    total = np.ones(())
    for factor_axes, table in factors:
        total = total * _broadcast_factor(axes, cards, factor_axes, table)
    return total if total.shape == shape else np.broadcast_to(total, shape).copy()


def contract(
    factors: Iterable[AxesTable], cards: Mapping[str, int], keep: Sequence[str]
) -> np.ndarray:
    """Product of ``factors`` summed down to ``keep``, one axis per kept
    vertex in that order.

    Variable elimination: each step takes the summed-out vertex with the
    fewest neighbours in the factors' interaction graph (ties in order of
    first appearance), multiplies the factors that mention it by
    broadcasting, and sums out it and every other summed-out vertex that no
    remaining factor mentions.  Every table formed, the result included, is
    checked against ``ENUMERATION_LIMIT``.
    """
    kept = set(keep)
    factors = list(factors)
    nbrs: dict[str, set[str]] = {}  # summed-out vertex -> its neighbours
    for axes, _ in factors:
        for v in axes:
            if v not in kept:
                nbrs.setdefault(v, set()).update(axes)
    while nbrs:
        v = min(nbrs, key=lambda u: len(nbrs[u]))
        bucket = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        left = kept.union(*(f_axes for f_axes, _ in factors))
        axes = tuple(dict.fromkeys(u for f_axes, _ in bucket for u in f_axes))
        gone = [u for u in axes if u not in left]
        out = tuple(u for u in axes if u in left)
        for u in gone:
            del nbrs[u]
        for u in out:
            if u in nbrs:
                nbrs[u].difference_update(gone)
                nbrs[u].update(out)
        table = bucket[0][1] if len(bucket) == 1 else _product(bucket, cards, axes)
        factors.append((out, table.sum(axis=tuple(axes.index(u) for u in gone))))
    return _product(factors, cards, tuple(keep))


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
    """Integer-coded observations: one column per vertex label."""

    columns: tuple[str, ...]
    rows: np.ndarray
    cards: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise ValueError("rows must be an (n, len(columns)) integer array")
        dup = sorted({c for c in self.columns if self.columns.count(c) > 1})
        if dup:
            raise ValueError(f"duplicate column labels {dup}")
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


def sample(bn: DiscreteBn, n: int, seed: int) -> Dataset:
    """Ancestral sampling of ``n`` i.i.d. rows; reproducible per seed.

    Vertices are drawn in topological order, one ``rng.random(n)`` each.  A
    row takes the first state j whose cumulative CPT entry reaches its draw
    u, found by bisecting the CPT's own cumulative table: one flat row per
    parent state, padded with +inf to a power-of-two width, and searched in
    ceil(log2 k) vectorized steps over the first k - 1 entries only, so a
    row whose float sum ends below u draws the last state k - 1.  The
    cumulative sums are the same float additions, in the same order, as
    those of the earlier sampler that gathered each row's CPT entries, so
    the rows for a seed are those of every earlier release.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    cols: dict[str, np.ndarray] = {}
    for v in topo_sort(bn.graph):
        k = bn.cards[v]
        table = bn.cpts[v]
        width = 1 << (k - 1).bit_length()
        cum = np.full((table.size // k, width), np.inf)
        cum[:, : k - 1] = np.cumsum(table.reshape(-1, k), axis=1)[:, : k - 1]
        cum = cum.ravel()
        parent_cols = tuple(cols[p] for p in bn.parent_order(v))
        base = np.ravel_multi_index(parent_cols, table.shape[:-1]) * width  # 0 for a root
        u = rng.random(n)
        pos = np.full(n, base, dtype=np.int64)
        step = width >> 1
        while step:
            # cum[step - 1:][pos] is cum[pos + step - 1], the last entry of
            # the next block of ``step``: jump past the block if it is below u
            pos += step * (cum[step - 1 :].take(pos) < u)
            step >>= 1
        cols[v] = pos - base
    data = np.column_stack([cols[v] for v in bn.graph.vertices])
    return Dataset(tuple(bn.graph.vertices), data, dict(bn.cards))


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
        return bn_from_json(json.load(fh))


def save_bn(bn: DiscreteBn, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bn_to_json(bn), fh, indent=2)


def dataset_to_csv(ds: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.columns)
        writer.writerows(ds.rows.tolist())


def dataset_from_csv(path: str, cards: Mapping[str, int] | None = None) -> Dataset:
    """A header of column labels, then one row of integer states per
    observation; blank lines are skipped.  A missing header, a header with
    no rows, or a row that is ragged or not integer raises ``ValueError``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError(f"{path}: no header line")
        rows = []
        for row in (r for r in reader if r):
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, expected {len(header)}")
                rows.append([int(x) for x in row])
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: header but no data rows")
    return Dataset(tuple(header), np.asarray(rows, dtype=np.int64), dict(cards or {}))
