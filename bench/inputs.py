"""Seeded input generators for the benchmark workloads.

Everything here is plain Python over edge lists: graphs are
``(vertices, edges, treatment, outcome)`` tuples, so the benchmark can build
its inputs without the program and hand the program only the result.  The
same seed always gives the same inputs.
"""

from __future__ import annotations

import random

Graph = tuple[list[str], list[tuple[str, str]], str, str]

# The paper's example graphs used by the exact-law identity suites (at most
# eight vertices each), in the program's line-oriented graph format.
PAPER_GRAPHS = {
    "trivial": "A -> Y\n",
    "motivating": (
        "A -> Y\nI1 -> A\nO1 -> Y\nW4 -> I1\nW4 -> O1\nW2 -> W4\nW3 -> W4\nW1 -> W2\n"
    ),
    "motivating_slim": (
        "A -> Y\nW4 -> A\nO1 -> Y\nW4 -> O1\nW3 -> W4\nW2 -> W4\n"
    ),
    "motivating_reduced": (
        "A -> Y\nO1 -> Y\nW2 -> O1\nW3 -> O1\nW2 -> A\nW3 -> A\nO1 -> A\n"
    ),
    "front_door": "A -> M\nM -> Y\nO -> A\nO -> Y\n",
    "mediator_plain": "A -> M\nM -> Y\nA -> Y\nO -> M\n",
    "mediator_confounded": "A -> M\nM -> Y\nA -> Y\nO -> M\nO -> A\n",
    "mediator_pair": "A -> M\nM -> Y\nA -> Y\nMp -> M\nA -> Mp\n",
    "two_adjusters": "A -> Y\nO1 -> A\nO1 -> Y\nO2 -> A\nO2 -> Y\n",
    "two_adjusters_root": (
        "A -> Y\nO1 -> A\nO1 -> Y\nO2 -> A\nO2 -> Y\nW -> O1\nW -> O2\n"
    ),
    "two_adjusters_chained": (
        "A -> Y\nO1 -> A\nO1 -> Y\nO2 -> A\nO2 -> Y\nW -> O1\nW -> O2\nO1 -> O2\n"
    ),
    "mediator_chain": (
        "A -> M1\nM1 -> M2\nM2 -> M3\nM3 -> Y\nM1 -> Y\nM1 -> M3\nI1 -> A\n"
        "O1 -> A\nO1 -> M1\nO2 -> M1\n"
    ),
}


def graph_text(body: str) -> str:
    return "!treatment A\n!outcome Y\n" + body


def parse_edges(body: str) -> Graph:
    """Edge-list form of a graph body written as ``U -> V`` lines."""
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    for line in body.splitlines():
        u, v = (s.strip() for s in line.split("->"))
        for x in (u, v):
            if x not in vertices:
                vertices.append(x)
        edges.append((u, v))
    return vertices, edges, "A", "Y"


def random_dag(rng: random.Random, n: int, avg_parents: float, window: int) -> Graph:
    """Random DAG on ``n`` vertices in topological order.

    Vertex ``j`` draws about ``avg_parents`` parents from the ``window``
    vertices before it; a vertex left without a child gets one edge forward,
    so every vertex is an ancestor of the outcome, the last vertex.  The
    treatment is the middle vertex, with an ``A -> Y`` edge.  So about half
    the vertices are covariates and most of the rest mediators.
    """
    names = [f"V{j}" for j in range(n)]
    a_idx = n // 2
    edges: list[tuple[str, str]] = []
    has_child = [False] * n
    for j in range(1, n):
        lo = max(0, j - window)
        k = min(j - lo, _poisson(rng, avg_parents))
        for i in sorted(rng.sample(range(lo, j), k)):
            edges.append((names[i], names[j]))
            has_child[i] = True
    for i in range(n - 1):
        if not has_child[i]:
            j = rng.randint(i + 1, min(n - 1, i + window))
            edges.append((names[i], names[j]))
    if (names[a_idx], names[-1]) not in edges:
        edges.append((names[a_idx], names[-1]))
    ren = {names[a_idx]: "A", names[-1]: "Y"}
    vertices = [ren.get(v, v) for v in names]
    edges = [(ren.get(u, u), ren.get(v, v)) for u, v in edges]
    return vertices, edges, "A", "Y"


def chained_core(
    rng: random.Random,
    core: int,
    w_chains: int,
    m_chains: int,
    length: int,
    side_chains: int = 0,
) -> Graph:
    """A small random core with long upstream covariate chains and mediator
    chains attached, which the reduction removes.

    Each covariate chain ``C_k -> ... -> C_1`` feeds one core covariate that
    reaches the outcome other than through the treatment.  Each mediator
    chain ``D_1 -> ... -> D_k -> E`` hangs off a source, the treatment or a
    core mediator, that is a parent of every chain vertex; only its end
    ``E``, a new parent of the outcome, is informative.  ``side_chains``
    adds as many chains into the treatment (indirect ancestors, I) and out
    of a core vertex into nothing (non-ancestors of the outcome, N), which
    the reduction drops before its main loop.
    """
    vertices, edges, a, y = random_dag(rng, core, 2.0, core // 2)
    roles = taxonomy(vertices, edges, a, y)
    covariates = sorted(roles["W"], key=vertices.index)
    mediators = sorted(roles["M"] - {y}, key=vertices.index)
    chain_vertices: list[str] = []
    for c in range(w_chains):
        prev = rng.choice(covariates or [a])
        for k in range(rng.randint(length // 2, length)):
            v = f"C{c}_{k}"
            chain_vertices.append(v)
            edges.append((v, prev))
            prev = v
    for c in range(m_chains):
        source = rng.choice(mediators) if mediators and rng.random() < 0.5 else a
        prev = source
        for k in range(rng.randint(length // 2, length)):
            v = f"D{c}_{k}"
            chain_vertices.append(v)
            edges.append((prev, v))
            if prev != source:
                edges.append((source, v))
            prev = v
        end = f"E{c}"
        chain_vertices.append(end)
        edges += [(prev, end), (source, end), (end, y)]
    for c in range(side_chains):
        prev = a
        for k in range(rng.randint(length // 2, length)):
            v = f"I{c}_{k}"
            chain_vertices.append(v)
            edges.append((v, prev))
            prev = v
        prev = rng.choice(vertices)
        for k in range(rng.randint(length // 2, length)):
            v = f"N{c}_{k}"
            chain_vertices.append(v)
            edges.append((prev, v))
            prev = v
    # chain vertices come first, so the default visit order meets them
    # before the core
    return chain_vertices + vertices, edges, a, y


def taxonomy(
    vertices: list[str], edges: list[tuple[str, str]], a: str, y: str
) -> dict[str, set[str]]:
    """N, I, W, M and O by plain reachability over the edge list.

    N: not ancestors of Y.  M: descendants of A (other than A) that are
    ancestors of Y.  I: ancestors of Y, not descendants of A, whose every
    directed path to Y passes through A.  W: the other ancestors of Y
    outside A's descendants.  O: parents of M outside M and A.
    """
    pa: dict[str, list[str]] = {v: [] for v in vertices}
    ch: dict[str, list[str]] = {v: [] for v in vertices}
    for u, v in edges:
        pa[v].append(u)
        ch[u].append(v)

    def reach(start: set[str], step: dict[str, list[str]], blocked: str | None = None) -> set[str]:
        out = set(start)
        stack = list(start)
        while stack:
            for w in step[stack.pop()]:
                if w not in out and w != blocked:
                    out.add(w)
                    stack.append(w)
        return out

    an_y = reach({y}, pa)
    de_a = reach({a}, ch)
    # ancestors of Y in the graph with A's out-edges cut reach Y avoiding A
    an_y_avoiding_a = reach({y}, pa, blocked=a)
    n = set(vertices) - an_y
    m = (de_a - {a}) & an_y
    i = {v for v in an_y - de_a if v not in an_y_avoiding_a}
    w = an_y - de_a - i - {a}
    o = {p for v in m for p in pa[v]} - m - {a}
    return {"N": n, "I": i, "W": w, "M": m, "O": o}


def _poisson(rng: random.Random, lam: float) -> int:
    # Knuth's method; lam is small
    limit = pow(2.718281828459045, -lam)
    k = 0
    p = rng.random()
    while p > limit:
        k += 1
        p *= rng.random()
    return k
