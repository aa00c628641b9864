"""Immutable directed acyclic graphs with a designated treatment and outcome.

Vertices are string labels; identity is by label.  All operations are pure
functions over the immutable :class:`Dag`, which is complete once constructed:
one pass over its edges checks each of them and builds the parent and child
sets and bitmasks, and its topological sort fills the ancestor bitmasks that
the reachability queries read.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from typing import Container, Iterable

__all__ = [
    "Dag",
    "GraphError",
    "GraphParseError",
    "CycleError",
    "UnknownVertexError",
    "parse_graph",
    "format_graph",
    "topo_sort",
    "ancestors",
    "descendants",
    "parents",
    "d_separated",
    "has_causal_path",
]

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_EDGE_RE = re.compile(r"^(\S+)\s*->\s*(\S+)$")


class GraphError(ValueError):
    """Invalid graph structure, file or query."""


class GraphParseError(GraphError):
    """Malformed graph file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CycleError(GraphError):
    """The directed graph is not acyclic."""


class UnknownVertexError(GraphError):
    """A query referenced a label that is not a declared vertex."""


@dataclass(frozen=True, eq=False)
class Dag:
    """Vertex-labeled DAG with treatment and outcome vertices.

    ``vertices`` keeps declaration order, which is used for deterministic
    tie-breaking everywhere.  Two graphs compare equal iff their vertex sets,
    edge sets, treatment and outcome agree (order-insensitive).

    Construction validates the graph and builds parent, child and reflexive
    ancestor bitmasks, ``_masks``, indexed by position in ``vertices``: bit i
    stands for ``vertices[i]``.  They are kept per instance, since equal
    graphs may order their vertices differently.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    treatment: str
    outcome: str

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str]],
        treatment: str,
        outcome: str,
    ):
        vs = tuple(vertices)
        es = tuple((str(u), str(v)) for u, v in edges)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)
        object.__setattr__(self, "treatment", treatment)
        object.__setattr__(self, "outcome", outcome)
        self._validate()

    def _validate(self) -> None:
        vs = self.vertices
        index = {v: i for i, v in enumerate(vs)}
        if len(index) != len(vs):
            raise GraphError("duplicate vertex labels")
        pa: list[list[str]] = [[] for _ in vs]
        ch: list[list[str]] = [[] for _ in vs]
        pa_mask = [0] * len(vs)
        ch_mask = [0] * len(vs)
        for u, v in self.edges:
            i, j = index.get(u), index.get(v)
            if i is None or j is None:
                raise GraphError(f"edge ({u}, {v}) references undeclared vertex")
            if i == j:
                raise GraphError(f"self-loop at {u}")
            bit = 1 << i
            if pa_mask[j] & bit:
                raise GraphError("duplicate edges")
            pa_mask[j] |= bit
            ch_mask[i] |= 1 << j
            pa[j].append(u)
            ch[i].append(v)
        for t, role in ((self.treatment, "treatment"), (self.outcome, "outcome")):
            if t not in index:
                raise GraphError(f"{role} {t!r} is not a declared vertex")
        if self.treatment == self.outcome:
            raise GraphError("treatment and outcome must differ")
        order, an_mask = _kahn(vs, index, pa, ch)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_pa", {v: frozenset(ps) for v, ps in zip(vs, pa)})
        object.__setattr__(self, "_ch", {v: frozenset(cs) for v, cs in zip(vs, ch)})
        object.__setattr__(self, "_masks", (tuple(pa_mask), tuple(ch_mask), an_mask))
        object.__setattr__(self, "_topo", order)
        object.__setattr__(self, "_topo_index", {v: i for i, v in enumerate(order)})

    # -- basic accessors ---------------------------------------------------
    def parents(self, v: str) -> frozenset[str]:
        self._check(v)
        return self._pa[v]

    def children(self, v: str) -> frozenset[str]:
        self._check(v)
        return self._ch[v]

    def parent_list(self, v: str) -> tuple[str, ...]:
        """Parents of ``v`` in canonical (topological) order."""
        return self.sort_topologically(self.parents(v))

    def has_edge(self, u: str, v: str) -> bool:
        return u in self._pa.get(v, ())

    def topo_index(self, v: str) -> int:
        self._check(v)
        return self._topo_index[v]

    def sort_topologically(self, labels: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(labels, key=self.topo_index))

    def _check(self, v: str) -> None:
        if v not in self._index:
            raise UnknownVertexError(f"unknown vertex {v!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        # the parent sets keyed by vertex hold the vertex and edge sets
        return (
            self._pa == other._pa
            and self.treatment == other.treatment
            and self.outcome == other.outcome
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._pa.items()), self.treatment, self.outcome))

    def __repr__(self) -> str:
        es = ", ".join(f"{u}->{v}" for u, v in self.edges)
        return f"Dag([{', '.join(self.vertices)}], [{es}], A={self.treatment}, Y={self.outcome})"


def _kahn(
    vertices: tuple[str, ...],
    index: dict[str, int],
    pa: list[list[str]],
    ch: list[list[str]],
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Deterministic topological order, ties broken by declaration order,
    and the reflexive ancestor masks, each filled when its vertex is popped
    (its parents all were before it)."""
    indeg = [len(ps) for ps in pa]
    heap = [i for i, d in enumerate(indeg) if not d]  # ascending: a heap
    an = [0] * len(vertices)
    out: list[str] = []
    while heap:
        i = heapq.heappop(heap)
        out.append(vertices[i])
        m = 1 << i
        for p in pa[i]:
            m |= an[index[p]]
        an[i] = m
        for c in ch[i]:
            k = index[c]
            indeg[k] -= 1
            if not indeg[k]:
                heapq.heappush(heap, k)
    if len(out) != len(vertices):
        raise CycleError("graph contains a cycle")
    return tuple(out), tuple(an)


# -- file format -----------------------------------------------------------

def parse_graph(text: str) -> Dag:
    """Parse the line-oriented graph format into a :class:`Dag`.

    Lines: ``# comment``, ``!treatment L``, ``!outcome L``, ``A -> B`` and
    bare labels declaring isolated vertices.  Vertices keep first-appearance
    order.
    """
    # vertices and edges as dict keys: ordered, and checked once each
    seen: dict[str, None] = {}
    edges: dict[tuple[str, str], None] = {}
    roles: dict[str, str | None] = {"treatment": None, "outcome": None}

    def declare(label: str, line_no: int) -> None:
        # a label is checked when first seen; every later mention is known good
        if not _LABEL_RE.match(label):
            raise GraphParseError(f"invalid label {label!r}", line_no)
        seen[label] = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("!"):
            parts = line[1:].split()
            if len(parts) != 2 or parts[0] not in roles:
                raise GraphParseError(f"malformed directive {line!r}", line_no)
            role, label = parts
            if roles[role] is not None:
                raise GraphParseError(f"duplicate !{role} directive", line_no)
            roles[role] = label
            continue
        m = _EDGE_RE.match(line)
        if m:
            u, v = m.groups()
            if u not in seen:
                declare(u, line_no)
            if v not in seen:
                declare(v, line_no)
            if u == v:
                raise GraphParseError(f"self-loop at {u!r}", line_no)
            if (u, v) in edges:
                raise GraphParseError(f"duplicate edge {u} -> {v}", line_no)
            edges[u, v] = None
            continue
        if "->" in line:
            raise GraphParseError(f"malformed edge line {line!r}", line_no)
        if line not in seen:
            declare(line, line_no)

    for role, label in roles.items():
        if label not in seen:
            raise GraphError(f"{role} is missing or undeclared")
    return Dag(seen, edges, roles["treatment"], roles["outcome"])


def format_graph(g: Dag) -> str:
    """Render a Dag in the graph file format; re-parsing restores it exactly."""
    lines = [f"!treatment {g.treatment}", f"!outcome {g.outcome}"]
    lines.extend(g.vertices)
    lines.extend(f"{u} -> {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# -- reachability ----------------------------------------------------------

def topo_sort(g: Dag) -> tuple[str, ...]:
    """Topological order with declaration-order tie-breaking (deterministic)."""
    return g._topo


def _as_set(g: Dag, s: Iterable[str]) -> set[str]:
    out = set()
    for v in s:
        g._check(v)
        out.add(v)
    return out


def _reach(
    g: Dag, start: Iterable[str], up: bool, stop: Container[str] = ()
) -> set[str]:
    """Every vertex reached from ``start`` along parent edges (``up``) or
    child edges, ``start`` included.  A vertex in ``stop`` is reached but
    not walked on from.  Labels are not checked."""
    step = g._pa if up else g._ch
    out = set(start)
    frontier = [v for v in out if v not in stop]
    while frontier:
        for u in step[frontier.pop()]:
            if u not in out:
                out.add(u)
                if u not in stop:
                    frontier.append(u)
    return out


def _bits(g: Dag, s: Iterable[str]) -> int:
    """Mask of the labels in ``s``; raises on an unknown label."""
    index = g._index
    m = 0
    try:
        for v in s:
            m |= 1 << index[v]
    except KeyError:
        raise UnknownVertexError(f"unknown vertex {v!r}") from None
    return m


def _union(masks: tuple[int, ...], m: int) -> int:
    """OR of ``masks[i]`` over the set bits i of ``m``."""
    out = 0
    while m:
        low = m & -m
        out |= masks[low.bit_length() - 1]
        m ^= low
    return out


def ancestors(g: Dag, s: Iterable[str]) -> frozenset[str]:
    """Reflexive ancestor set of ``s``: includes ``s`` itself."""
    m = _union(g._masks[2], _bits(g, s))
    # bin() lists the bits most significant first; reversed, it lines up
    # with ``vertices`` without a shift per vertex
    return frozenset(v for v, b in zip(g.vertices, bin(m)[:1:-1]) if b == "1")


def descendants(g: Dag, s: Iterable[str]) -> frozenset[str]:
    """Reflexive descendant set of ``s``."""
    return frozenset(_reach(g, _as_set(g, s), up=False))


def parents(g: Dag, s: Iterable[str]) -> frozenset[str]:
    """Union of parent sets of ``s`` (not reflexive)."""
    return frozenset().union(*map(g.parents, s))


def d_separated(
    g: Dag, x: Iterable[str], y: Iterable[str], z: Iterable[str]
) -> bool:
    """Decide d-separation of ``x`` and ``y`` given ``z``.

    Overlaps are permitted: the query is first rewritten to
    ``x \\ z`` vs ``y \\ z`` given ``z``; an empty side is separated by
    convention.  Overlapping x/y (after the rewrite) are d-connected.

    The labels are checked and turned into masks here; the ball itself is
    :func:`_separated`, which the criteria call on masks directly.
    """
    zm = _bits(g, z)
    return _separated(g, _bits(g, x) & ~zm, _bits(g, y) & ~zm, zm)


def _separated(g: Dag, xm: int, ym: int, zm: int) -> bool:
    """d-separation of the masks ``xm`` and ``ym`` given ``zm``, both sides
    already disjoint from ``zm``.

    Bayes-ball reachability (Shachter 1998) over the graph's bitmasks, in
    the form that turns a ball entering An(z) from a parent back up: the
    ball moves one whole frontier at a time, held as two masks, the vertices
    entered from a child and those entered from a parent.
    """
    if not xm or not ym:
        return True
    if xm & ym:
        return False
    pa, ch, an = g._masks
    an_z = _union(an, zm)
    # A vertex entered from a child passes the ball on unless it is in z; one
    # entered from a parent passes it to its children unless it is in z, and
    # bounces it back to its parents if it is in An(z).
    from_child, from_parent = xm, 0
    seen_child = seen_parent = 0
    while from_child or from_parent:
        if (from_child | from_parent) & ym:
            return False
        seen_child |= from_child
        seen_parent |= from_parent
        up = (from_child & ~zm) | (from_parent & an_z)
        down = (from_child | from_parent) & ~zm
        from_child = _union(pa, up) & ~seen_child
        from_parent = _union(ch, down) & ~seen_parent
    return True


def has_causal_path(
    g: Dag, frm: str, to: str, avoiding: Iterable[str] = ()
) -> bool:
    """True iff a directed path ``frm -> ... -> to`` has no interior vertex
    in ``avoiding`` (endpoints are exempt)."""
    g._check(frm)
    g._check(to)
    avoid = _as_set(g, avoiding)
    return to in _reach(g, {frm}, up=False, stop=avoid - {frm})
