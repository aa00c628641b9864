"""Vertex taxonomy around a treatment/outcome pair.

Partitions the vertices of a :class:`~causal_reduce.graph.Dag` into the
treatment, non-ancestors of the outcome (N), indirect ancestors reaching the
outcome only through the treatment (I), baseline covariates (W) and mediators
(M, which includes the outcome), and derives the optimal adjustment set O
together with its minimal d-separating subset O_min.  I is what is left of
An(Y) \\ De(A) after one walk back from Y that does not pass through A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import (
    Dag,
    GraphError,
    _reach,
    ancestors,
    d_separated,
    descendants,
    parents,
)

__all__ = [
    "Taxonomy",
    "AssumptionViolation",
    "classify",
    "minimal_dseparator_within",
]


class AssumptionViolation(GraphError):
    """The treatment is not an ancestor of the outcome."""


@dataclass(frozen=True)
class Taxonomy:
    """Partition {A} | n | i | w | m of the vertices, plus o and o_min."""

    n: frozenset[str]
    i: frozenset[str]
    w: frozenset[str]
    m: frozenset[str]
    o: frozenset[str]
    o_min: frozenset[str]


def classify(g: Dag) -> Taxonomy:
    """Classify every vertex of ``g``; raises if A is not an ancestor of Y."""
    a, y = g.treatment, g.outcome
    an_y = ancestors(g, {y})
    if a not in an_y:
        raise AssumptionViolation(
            f"treatment {a!r} is not an ancestor of outcome {y!r}"
        )
    de_a = descendants(g, {a})
    n = frozenset(v for v in g.vertices if v not in an_y)
    m = frozenset(v for v in de_a if v != a and v in an_y)
    w = frozenset(_reach(g, {y}, up=True, stop={a}) - de_a)
    i = an_y - de_a - w
    o = parents(g, m) - m - {a}
    o_min = minimal_dseparator_within(g, {a}, frozenset(), o)
    return Taxonomy(n=n, i=i, w=w, m=m, o=o, o_min=o_min)


def minimal_dseparator_within(
    g: Dag, x: Iterable[str], y: Iterable[str], c: Iterable[str]
) -> frozenset[str]:
    """Unique inclusion-minimal ``s <= c`` with ``x`` d-separated from
    ``y | (c \\ s)`` given ``s``; requires ``d_separated(g, x, y, c)``.

    ``v`` in ``c`` is kept iff ``x`` is d-connected to ``y | {v}`` given
    ``c \\ {v}``.  A vertex outside some valid ``s`` passes that test by weak
    union, and by the intersection property, which d-separation has, all
    vertices that pass can be dropped together.
    """
    xs, ys, cs = frozenset(x), frozenset(y), frozenset(c)
    if not d_separated(g, xs, ys, cs):
        raise GraphError("precondition failed: x and y are not d-separated by c")
    return frozenset(v for v in cs if not d_separated(g, xs, ys | {v}, cs - {v}))
