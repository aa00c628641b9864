"""Independent brute-force oracles the implementation is checked against.

Everything here enumerates paths or subsets directly, or (``d_separated_moral``)
tests separation in a moral graph, and shares no code with the traversal-based
implementations under test, except ``reduce_rechecking``:
the reduction loop that re-derives the taxonomy and the verdicts on the
current graph at every step, built from the library's own parts, and
``eif_dense``: the dense tables of the influence function, formed from the
library's own family differences in one pass.
"""

from __future__ import annotations

from itertools import chain, combinations

import numpy as np

from causal_reduce.bn import Dataset
from causal_reduce.graph import Dag, topo_sort


def all_simple_paths(g: Dag, src: str, dst: str) -> list[list[str]]:
    """Every simple path between src and dst in the skeleton."""
    adjacency: dict[str, set[str]] = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    paths: list[list[str]] = []

    def walk(path: list[str]) -> None:
        last = path[-1]
        if last == dst:
            paths.append(list(path))
            return
        for nxt in adjacency[last]:
            if nxt not in path:
                path.append(nxt)
                walk(path)
                path.pop()

    walk([src])
    return paths


def _ancestors(g: Dag, s: set[str]) -> set[str]:
    out = set(s)
    frontier = set(s)
    while frontier:
        v = frontier.pop()
        for p in g.parents(v):
            if p not in out:
                out.add(p)
                frontier.add(p)
    return out


def path_active(g: Dag, path: list[str], z: set[str]) -> bool:
    """A path is active given z iff every collider is ancestral to z and no
    non-collider lies in z."""
    an_z = _ancestors(g, z) if z else set()
    for i in range(1, len(path) - 1):
        prev, mid, nxt = path[i - 1], path[i], path[i + 1]
        collider = g.has_edge(prev, mid) and g.has_edge(nxt, mid)
        if collider:
            if mid not in an_z:
                return False
        elif mid in z:
            return False
    return True


def d_separated_oracle(g: Dag, x, y, z) -> bool:
    """Path-enumeration d-separation with the same overlap conventions."""
    zs = set(z)
    xs = set(x) - zs
    ys = set(y) - zs
    if not xs or not ys:
        return True
    if xs & ys:
        return False
    for s in xs:
        for t in ys:
            for path in all_simple_paths(g, s, t):
                if path_active(g, path, zs):
                    return False
    return True


def d_separated_moral(g: Dag, x, y, z) -> bool:
    """Lauritzen's criterion, with the same overlap conventions: x and y are
    d-separated given z iff z separates them in the moral graph of
    An(x | y | z).  Polynomial, so it reaches graphs path enumeration cannot."""
    zs = set(z)
    xs = set(x) - zs
    ys = set(y) - zs
    if not xs or not ys:
        return True
    if xs & ys:
        return False
    keep = _ancestors(g, xs | ys | zs)
    adjacency: dict[str, set[str]] = {v: set() for v in keep}
    for v in keep:
        family = [v, *g.parents(v)]
        for u, w in combinations(family, 2):
            adjacency[u].add(w)
            adjacency[w].add(u)
    seen = set(xs)
    frontier = list(xs)
    while frontier:
        for u in adjacency[frontier.pop()]:
            if u in ys:
                return False
            if u not in seen and u not in zs:
                seen.add(u)
                frontier.append(u)
    return True


def causal_path_oracle(g: Dag, frm: str, to: str, avoiding) -> bool:
    avoid = set(avoiding)
    if frm == to:
        return True

    def walk(v: str, seen: set[str]) -> bool:
        for c in g.children(v):
            if c == to:
                return True
            if c not in seen and c not in avoid:
                if walk(c, seen | {c}):
                    return True
        return False

    return walk(frm, {frm})


def powerset(iterable):
    items = list(iterable)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def minimal_separator_oracle(g: Dag, x, y, c) -> frozenset[str]:
    """All-subset search for the unique inclusion-minimal s <= c with x
    d-separated from y | (c \\ s) given s."""
    cs = frozenset(c)
    good = [
        frozenset(s)
        for s in powerset(cs)
        if d_separated_oracle(g, set(x), set(y) | (cs - set(s)), set(s))
    ]
    minimal = [s for s in good if not any(t < s for t in good)]
    assert len(minimal) == 1, f"minimum not unique: {minimal}"
    return minimal[0]


def random_dag(rng: np.random.Generator, n: int, p_edge: float = 0.4,
               ensure_assumption: bool = False) -> Dag:
    """Random DAG on n labeled vertices; optionally forces treatment to be
    ancestral to outcome by adding a direct edge."""
    labels = [f"V{i}" for i in range(n)]
    order = list(rng.permutation(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                edges.append((labels[order[i]], labels[order[j]]))
    a, y = rng.choice(n, size=2, replace=False)
    treatment, outcome = labels[a], labels[y]
    if ensure_assumption:
        pos = {labels[order[i]]: i for i in range(n)}
        if pos[treatment] > pos[outcome]:
            treatment, outcome = outcome, treatment
        if (treatment, outcome) not in edges:
            edges.append((treatment, outcome))
    return Dag(labels, edges, treatment, outcome)


def chained_dag(rng: np.random.Generator, core: int, w_chains: int, m_chains: int,
                length: int, sides: int = 0) -> Dag:
    """A random core of ``core`` vertices with chains of 1 to ``length``
    vertices grown onto it:

    - ``w_chains`` covariate chains ``C_k -> ... -> C_1`` into core covariates;
    - ``m_chains`` mediator chains ``D_1 -> ... -> D_k -> E -> Y`` off a
      source, the treatment or a core mediator, that is a parent of every
      chain vertex;
    - ``sides`` side chains ``I_k -> ... -> I_1 -> A`` of I vertices, whose
      head takes a covariate parent half the time, and as many chains
      ``N_1 -> ... -> N_k`` of N vertices off any vertex.  A side chain may
      hang off a chain vertex that the reduction removes.

    The library's taxonomy of the core chooses where the chains attach.
    """
    from causal_reduce.taxonomy import classify

    g = random_dag(rng, core, 0.4, ensure_assumption=True)
    tax = classify(g)
    a, y = g.treatment, g.outcome
    vertices, edges = list(g.vertices), list(g.edges)
    covariates = [v for v in vertices if v in tax.w] or [a]
    mediators = [v for v in vertices if v in tax.m - {y}]
    for c in range(w_chains):
        prev = covariates[rng.integers(len(covariates))]
        for k in range(int(rng.integers(1, length + 1))):
            vertices.append(f"C{c}_{k}")
            edges.append((vertices[-1], prev))
            prev = vertices[-1]
    for c in range(m_chains):
        source = mediators[rng.integers(len(mediators))] if mediators and rng.random() < 0.5 else a
        prev = source
        for k in range(int(rng.integers(1, length + 1))):
            vertices.append(f"D{c}_{k}")
            edges.append((prev, vertices[-1]))
            if prev != source:
                edges.append((source, vertices[-1]))
            prev = vertices[-1]
        vertices.append(f"E{c}")
        edges += [(prev, f"E{c}"), (source, f"E{c}"), (f"E{c}", y)]
    covariates = [v for v in vertices if v in tax.w or v.startswith("C")]
    for c in range(sides):
        prev = a
        for k in range(int(rng.integers(1, length + 1))):
            vertices.append(f"I{c}_{k}")
            edges.append((vertices[-1], prev))
            prev = vertices[-1]
        if covariates and rng.random() < 0.5:
            edges.append((covariates[rng.integers(len(covariates))], prev))
        prev = vertices[rng.integers(len(vertices))]
        for k in range(int(rng.integers(1, length + 1))):
            vertices.append(f"N{c}_{k}")
            edges.append((prev, vertices[-1]))
            prev = vertices[-1]
    return Dag(vertices, edges, a, y)


def criterion_verdicts_reference(g: Dag, tax) -> dict:
    """The verdict of every vertex of W \\ O and of M \\ {Y}, in declaration
    order, each judged by its criterion's definition on the label sets of
    ``g``, with ``d_separated_moral`` for separation."""
    from causal_reduce.criteria import CriterionVerdict

    groups = (
        (tax.w - tax.o, tax.w, tax.o),
        (tax.m - {g.outcome}, tax.m, frozenset({g.treatment, g.outcome}) | tax.o_min),
    )

    def judge(v, group, targets):
        chain = g.sort_topologically(g.children(v) & group)

        def separated(x, z):
            return d_separated_moral(g, set(x) - set(z), targets, z)

        last = chain[-1]
        if not separated({v}, {last} | (g.parents(last) - {v})):
            return CriterionVerdict(v, False, "i", None, chain)
        prev = v
        for t, cur in enumerate(chain, start=1):
            if not g.has_edge(prev, cur):
                return CriterionVerdict(v, False, "ii_a", t, chain)
            if not g.parents(cur) <= g.parents(prev) | {prev}:
                return CriterionVerdict(v, False, "ii_b", t, chain)
            if not separated(g.parents(prev) - g.parents(cur), g.parents(cur)):
                return CriterionVerdict(v, False, "ii_c", t, chain)
            prev = cur
        return CriterionVerdict(v, True, None, None, chain)

    return {
        v: judge(v, group, targets)
        for v in g.vertices
        for members, group, targets in groups
        if v in members
    }


def reduce_rechecking(g: Dag, order=None):
    """The reduction loop that re-classifies the current graph and re-runs
    the visited vertex's criterion on it before every projection.

    Returns the output graph, the removals as ``reduce`` records them, and
    one ``(graph, taxonomy, verdict)`` step per visited vertex, read on the
    graph current at that visit.
    """
    from causal_reduce.criteria import m_criterion, w_criterion
    from causal_reduce.reduction import project_out_ni, project_vertex
    from causal_reduce.taxonomy import classify

    tax0 = classify(g)
    removed = []
    for v in g.vertices:
        if v in tax0.n | tax0.i:
            removed.append((v, "N" if v in tax0.n else "I", ()))
    cur = project_out_ni(g)
    kept = {g.treatment, g.outcome} | tax0.o
    loop = [v for v in cur.vertices if v not in kept] if order is None else list(order)
    steps = []
    for v in loop:
        tax = classify(cur)
        if v in tax.w - tax.o:
            verdict = w_criterion(cur, tax, v)
            pi = verdict.chain
            if g.treatment in cur.children(v):
                pi = pi + (g.treatment,)
            reason = "W-criterion"
        elif v in tax.m - {g.outcome}:
            verdict = m_criterion(cur, tax, v)
            pi = cur.sort_topologically(cur.children(v))
            reason = "M-criterion"
        else:
            raise AssertionError(f"{v!r} left W \\ O and M \\ {{Y}}")
        steps.append((cur, tax, verdict))
        if verdict.satisfied:
            cur = project_vertex(cur, v, pi)
            removed.append((v, reason, pi))
    return cur, tuple(removed), steps


def joint_prob_loop(bn, assignment: dict[str, int]) -> float:
    """Nested-loop joint probability from CPT lookups (no numpy broadcasting)."""
    p = 1.0
    for v in bn.graph.vertices:
        idx = tuple(assignment[q] for q in bn.parent_order(v)) + (assignment[v],)
        p *= float(bn.cpts[v][idx])
    return p


def ci_holds(joint: np.ndarray, labels, x: str, ys, zs, tol: float = 1e-10) -> bool:
    """Exact conditional-independence check X _||_ Y | Z on a joint array."""
    ys = [v for v in ys]
    zs = [v for v in zs]
    pos = {v: i for i, v in enumerate(labels)}
    keep = sorted({pos[x]} | {pos[v] for v in ys} | {pos[v] for v in zs})
    marg = joint.sum(axis=tuple(i for i in range(len(labels)) if i not in keep))
    names = [labels[i] for i in keep]
    ix = names.index(x)
    iy = tuple(names.index(v) for v in ys)
    iz = tuple(names.index(v) for v in zs)
    axes_not_z = tuple(i for i in range(len(names)) if i not in iz)
    pz = marg.sum(axis=axes_not_z, keepdims=True)
    pxz = marg.sum(axis=iy, keepdims=True) if iy else marg
    pyz = marg.sum(axis=(ix,), keepdims=True)
    return bool(np.max(np.abs(marg * pz - pxz * pyz)) <= tol)


def local_markov_holds(joint: np.ndarray, labels, g, tol: float = 1e-10) -> bool:
    """Every 'vertex independent of its non-descendants given its parents'."""
    from causal_reduce.graph import descendants

    for v in g.vertices:
        nond = set(g.vertices) - set(descendants(g, {v})) - g.parents(v)
        if not nond:
            continue
        if not ci_holds(joint, labels, v, nond, g.parents(v), tol):
            return False
    return True


def cond_expectation_loop(bn, f_vars, f, given) -> float:
    """Nested-loop conditional expectation."""
    from itertools import product

    free = [v for v in bn.graph.vertices if v not in given]
    num = 0.0
    den = 0.0
    for states in product(*[range(bn.cards[v]) for v in free]):
        assignment = dict(given)
        assignment.update(dict(zip(free, states)))
        p = joint_prob_loop(bn, assignment)
        den += p
        num += p * f(*[assignment[v] for v in f_vars])
    if den <= 0:
        raise ZeroDivisionError("conditioning event has probability zero")
    return num / den


def expectation_of_assignment_fn_loop(bn, f, given) -> float:
    """E[f(full assignment) | given] by nested loops."""
    from itertools import product

    free = [v for v in bn.graph.vertices if v not in given]
    num = 0.0
    den = 0.0
    for states in product(*[range(bn.cards[v]) for v in free]):
        assignment = dict(given)
        assignment.update(dict(zip(free, states)))
        p = joint_prob_loop(bn, assignment)
        den += p
        num += p * f(assignment)
    return num / den


def g_functional_loop(bn, a: int) -> float:
    """Truncated-factorization sum by nested loops over all configurations."""
    from itertools import product

    g = bn.graph
    rest = [v for v in g.vertices if v != g.treatment]
    total = 0.0
    for states in product(*[range(bn.cards[v]) for v in rest]):
        assignment = dict(zip(rest, states))
        assignment[g.treatment] = a
        p = 1.0
        for v in rest:
            idx = tuple(assignment[q] for q in bn.parent_order(v)) + (assignment[v],)
            p *= float(bn.cpts[v][idx])
        total += p * assignment[g.outcome]
    return total


def g_formula_dense(table: np.ndarray, labels, factors, treat: str, y: str, a: int):
    """A g-formula as one dense product over ``labels``, its conditionals
    read from ``table``, a law or counts with one axis per label in that
    order; ``factors`` hold one ``(child, parents)`` per summed label.

    Returns the value, or, when a needed conditional is on an event of zero
    weight, a list with one ``(child, cells)`` per factor that has one, in
    factor order, ``cells`` holding the states of the child's parents other
    than ``treat``.  A configuration is needed where every defined
    conditional is positive."""
    total = np.ones([1] * len(labels))
    holes = []
    for child, parents in factors:
        drop = tuple(i for i, v in enumerate(labels) if v != child and v not in parents)
        num = table.sum(axis=drop, keepdims=True)
        if treat in parents:
            num = num.take([a], axis=labels.index(treat))
        den = num.sum(axis=labels.index(child), keepdims=True)
        total = total * np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 1.0)
        holes.append((child, [v for v in parents if v != treat], den <= 0.0))
    null = []
    for child, given, hole in holes:
        at = [labels.index(v) for v in given]
        other = tuple(i for i in range(len(labels)) if i not in at)
        mask = (np.broadcast_to(hole, total.shape) & (total > 0.0)).any(axis=other)
        if mask.any():
            # ``mask`` has the given axes in ``labels`` order
            order = sorted(at)
            cells = {tuple(int(c[order.index(i)]) for i in at) for c in np.argwhere(mask)}
            null.append((child, cells))
    if null:
        return null
    shape = [1] * len(labels)
    shape[labels.index(y)] = -1
    y_vals = np.arange(table.shape[labels.index(y)], dtype=float).reshape(shape)
    return float((total * y_vals).sum())


def adjustment_dense(joint: np.ndarray, labels, L, treat: str, y: str, a: int):
    """The adjustment formula over ``L`` and the variance of its
    nonparametric influence function, as dense computations on ``joint``, a
    law with one axis per label in that order: psi = sum over l of
    E[Y | A=a, L=l] P(l), and E[phi^2] with
    phi = 1{A=a} / P(A=a | L) (Y - E[Y | A=a, L]) + E[Y | A=a, L] - psi.

    Returns ``(psi, variance)``, or, where P(A=a, L=l) = 0 for some l with
    P(l) > 0, the sorted list of those states l, in ``labels`` order."""
    Ls = [v for v in labels if v in set(L)]

    def sum_to(arr, keep):
        drop = tuple(i for i, v in enumerate(labels) if v not in keep)
        return arr.sum(axis=drop, keepdims=True)

    def axis_values(v):
        shape = [1] * len(labels)
        shape[labels.index(v)] = -1
        return np.arange(joint.shape[labels.index(v)], dtype=float).reshape(shape)

    y_vals = axis_values(y)
    ind_a = (axis_values(treat) == a).astype(float)
    p_l = sum_to(joint, Ls)
    p_al = sum_to(joint * ind_a, Ls)
    null = (p_l > 0.0) & (p_al <= 0.0)
    if null.any():
        at = [labels.index(v) for v in Ls]
        return sorted({tuple(int(c[i]) for i in at) for c in np.argwhere(null)})
    b = sum_to(joint * ind_a * y_vals, Ls) / np.where(p_al > 0.0, p_al, 1.0)
    e = p_al / np.where(p_l > 0.0, p_l, 1.0)
    psi = float((b * p_l).sum())
    phi = ind_a / np.where(e > 0.0, e, 1.0) * (y_vals - b) + b - psi
    return psi, float((joint * phi**2).sum())


def eif_loop(bn, a: int, point: dict[str, int]) -> float:
    """Influence function at one configuration, composed entirely from
    nested-loop conditional expectations."""
    from causal_reduce.taxonomy import classify

    g = bn.graph
    tax = classify(g)
    o_order = [v for v in g.vertices if v in tax.o]
    omin_order = [v for v in g.vertices if v in tax.o_min]

    def b_of(assignment) -> float:
        given = {v: assignment[v] for v in o_order}
        given[g.treatment] = a
        return cond_expectation_loop(bn, [g.outcome], lambda y: float(y), given)

    def t_of(assignment) -> float:
        if assignment[g.treatment] != a:
            return 0.0
        given = {v: assignment[v] for v in omin_order}
        rho = cond_expectation_loop(
            bn, [g.treatment], lambda t: float(t == a), given
        )
        return assignment[g.outcome] / rho

    total = 0.0
    for wj in (v for v in g.vertices if v in tax.w):
        pa = g.parents(wj)
        total += expectation_of_assignment_fn_loop(
            bn, b_of, {v: point[v] for v in pa | {wj}}
        )
        total -= expectation_of_assignment_fn_loop(
            bn, b_of, {v: point[v] for v in pa}
        )
    for mk in (v for v in g.vertices if v in tax.m):
        pa = g.parents(mk)
        total += expectation_of_assignment_fn_loop(
            bn, t_of, {v: point[v] for v in pa | {mk}}
        )
        total -= expectation_of_assignment_fn_loop(
            bn, t_of, {v: point[v] for v in pa}
        )
    return total


def eif_dense(bn, a: int, graph: Dag):
    """The influence function under ``graph`` and the law, each with one
    axis per vertex of ``graph`` in its order, formed densely before any
    point is read: the network's marginal over ``graph.vertices``, and each
    difference of ``EifContext.build(bn, a, graph).families`` broadcast
    over it and added onto zeros, in family order.  Returns
    ``(values, joint)``."""
    from causal_reduce.bn import _broadcast_factor, marginal
    from causal_reduce.functionals import EifContext

    joint = marginal(bn, graph.vertices)
    values = np.zeros(joint.shape)
    for _, fam, _, diff in EifContext.build(bn, a, graph).families:
        values += _broadcast_factor(graph.vertices, bn.cards, fam, diff)
    return values, joint


def sample_gathered(bn, n: int, seed: int):
    """The gather-and-compare ancestral sampler ``bn.sample`` replaced: it
    gathers each row's CPT entries into an (n, k) block, takes its
    cumulative sum and counts the entries below u.  ``bn.sample`` must
    return the same rows for every seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    cols: dict[str, np.ndarray] = {}
    for v in topo_sort(bn.graph):
        parents = bn.parent_order(v)
        table = bn.cpts[v]
        if parents:
            rows = table[tuple(cols[p] for p in parents)]
        else:
            rows = np.broadcast_to(table, (n, bn.cards[v]))
        cum = np.cumsum(rows, axis=1)
        u = rng.random(n)
        states = (u[:, None] > cum).sum(axis=1)
        cols[v] = np.minimum(states, bn.cards[v] - 1).astype(np.int64)
    data = np.column_stack([cols[v] for v in bn.graph.vertices])
    return Dataset(tuple(bn.graph.vertices), data, dict(bn.cards))


def contract_dense(factors, cards, keep) -> np.ndarray:
    """The product of ``(axes, table)`` factors summed down to ``keep``, one
    axis per kept vertex in that order: the whole product over every vertex
    that ``keep`` or a factor names, formed by explicit broadcasting, then
    summed over the vertices not kept."""
    axes = list(dict.fromkeys([*keep, *(v for f_axes, _ in factors for v in f_axes)]))
    total = np.ones([cards[v] for v in axes])
    for f_axes, table in factors:
        order = sorted(range(len(f_axes)), key=lambda i: axes.index(f_axes[i]))
        shape = [cards[v] if v in f_axes else 1 for v in axes]
        total = total * np.transpose(table, order).reshape(shape)
    return total.sum(axis=tuple(range(len(keep), len(axes))))


def g_formula_per_family(bn, graph: Dag, a: int) -> float:
    """``graph``'s g-formula on the law of ``bn`` through the library's
    ``_g_formula`` kernel, with each family's table read by its own
    ``marginal`` of the network: one contraction per family, where the
    library reads them all from one calibrated pass past 2**14 cells.
    Returns the value, or raises as the routes do."""
    from causal_reduce.bn import marginal
    from causal_reduce.functionals import _factors, _g_formula

    labels = [v for v in bn.graph.vertices if v in set(graph.vertices)]
    return _g_formula(
        lambda scopes: [marginal(bn, s) for s in scopes], labels, bn.cards,
        _factors(graph), graph.treatment, graph.outcome, a,
    )
