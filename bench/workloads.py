"""The four benchmark workloads.

Each workload builds its inputs from the seed through the program's own
constructors (``build``), runs one item at a time (``run_item``) and checks
the recorded outputs afterwards (``check``).  Graph structures are fixed per
slot; the seed relabels the graphs, shuffles their edge lines and draws
every law's probabilities.  So the same seed gives the same inputs, and
every seed gives the same amount of work.
"""

from __future__ import annotations

import random

import numpy as np

import oracle
from inputs import PAPER_GRAPHS, Graph, chained_core, graph_text, parse_edges, random_dag

LEVEL = 1
EPSILON = 0.02


def slot_rng(seed: int, workload: str, slot: int) -> random.Random:
    # string seeds hash with SHA-512, so streams do not depend on
    # PYTHONHASHSEED
    return random.Random(f"{seed}:{workload}:{slot}")


def permuted(g: Graph, rng: random.Random, relabel: bool) -> Graph:
    """The same graph with its edge lines shuffled and, if asked, its
    labels renamed.  Vertex order, and so the reduction's visit order, is
    kept: reordering moves the cost of ``reduce`` by some 10 % per seed."""
    vertices, edges, a, y = g
    names = {v: v for v in vertices}
    if relabel:
        others = [v for v in vertices if v not in (a, y)]
        fresh = [f"X{i}" for i in range(len(others))]
        rng.shuffle(fresh)
        names.update(zip(others, fresh))
    new_edges = [(names[u], names[v]) for u, v in edges]
    rng.shuffle(new_edges)
    return [names[v] for v in vertices], new_edges, a, y


def _dag(cr, g: Graph):
    vertices, edges, a, y = g
    return cr.Dag(vertices, edges, a, y)


# -- reduce_dags ------------------------------------------------------------

def reduce_dag_structures() -> list[tuple[str, Graph, bool]]:
    """(name, structure, relabel) per slot of the reduce_dags batch: three
    graphs of at most 10 vertices, then costs that step up by factors of
    about 1.2-1.5 from 40 ms to 0.7 s, and one graph of about 2 s."""
    return [
        ("motivating", parse_edges(PAPER_GRAPHS["motivating"]), False),
        ("mediator_chain", parse_edges(PAPER_GRAPHS["mediator_chain"]), False),
        ("chained_9", chained_core(random.Random(23), 5, 1, 1, 2), True),
        ("plain_40", random_dag(random.Random(322), 40, 2.0, 15), True),
        ("plain_50", random_dag(random.Random(323), 50, 2.0, 15), True),
        ("chained_88", chained_core(random.Random(432), 15, 4, 2, 15), True),
        ("plain_60", random_dag(random.Random(301), 60, 2.0, 15), True),
        ("plain_70", random_dag(random.Random(324), 70, 2.0, 15), True),
        ("plain_80a", random_dag(random.Random(313), 80, 2.0, 15), True),
        ("chained_157", chained_core(random.Random(401), 20, 6, 3, 20), True),
        ("wide_988", chained_core(random.Random(403), 30, 6, 3, 20, side_chains=26), True),
        ("plain_80b", random_dag(random.Random(312), 80, 2.0, 15), True),
        ("plain_100", random_dag(random.Random(302), 100, 2.0, 20), True),
        ("chained_251", chained_core(random.Random(433), 25, 8, 4, 24), True),
        ("chained_378", chained_core(random.Random(402), 30, 10, 5, 30), True),
    ]


class ReduceDags:
    """One item: parse one graph's text, reduce it and render the reduced
    graph's g-formula."""

    name = "reduce_dags"
    ops_per_item = 1

    def build(self, cr, seed: int) -> None:
        self.graphs: list[Graph] = []
        self.items: list[str] = []
        for slot, (_, g, relabel) in enumerate(reduce_dag_structures()):
            g = permuted(g, slot_rng(seed, self.name, slot), relabel)
            self.graphs.append(g)
            self.items.append(cr.format_graph(_dag(cr, g)))
        self.law_seeds = [slot_rng(seed, "reduce_law", s).getrandbits(32) for s in range(len(self.items))]

    def run_item(self, cr, text: str):
        g = cr.parse_graph(text)
        out = cr.reduce(g).output
        return out, cr.render(cr.derive_gformula(out))

    def failed(self, index: int, output) -> int:
        return 0

    def fingerprint(self, output):
        return output

    def check(self, cr, index: int, output) -> list[str]:
        reduced, text = output
        eg = self.graphs[index]
        g = cr.parse_graph(self.items[index])
        problems = oracle.check_taxonomy(eg, cr.classify(g))
        problems += oracle.check_reduction(eg, reduced.vertices, cr.informative_set(g))
        problems += oracle.check_formula_text(text, len(reduced.vertices))
        order = oracle.visit_order(eg, g.vertices)
        if cr.reduce(g, order=order[::-1]).output != reduced:
            problems.append("reversed visit order gives a different reduced graph")
        if len(g.vertices) <= 10:
            bn = cr.random_law(g, {v: 2 for v in g.vertices}, seed=self.law_seeds[index], epsilon=EPSILON)
            problems += oracle.check_close(
                "g_functional_for_graph on the reduced graph",
                cr.g_functional_for_graph(bn, reduced, LEVEL),
                cr.g_functional_exact(bn, LEVEL),
                oracle.EXACT_TOL,
            )
        return problems


# -- exact_small and exact_large ---------------------------------------------

LAW_SUITE = (
    "trivial",
    "motivating",
    "motivating_slim",
    "motivating_reduced",
    "front_door",
    "mediator_plain",
    "mediator_confounded",
    "mediator_pair",
    "two_adjusters",
    "two_adjusters_root",
    "two_adjusters_chained",
    "mediator_chain",
)

# Laws with P(A=1 | O=o) = 0 for one state o: the graph body, the treatment
# CPT row (indexed by A's parents) that is set to (1, 0), and the seed of
# the rest of the law.  They do not depend on the benchmark seed.
POSITIVITY_VIOLATIONS = (
    ("W -> O\nO -> A\nO -> Y\nA -> Y\n", (0,), 11),
    (PAPER_GRAPHS["two_adjusters"], (0, 1), 12),
    (PAPER_GRAPHS["mediator_confounded"], (1,), 13),
)

EXACT_ROUTES = (
    "g_functional_exact",
    "g_functional_for_graph",
    "adjustment_exact",
    "evaluate",
    "eif_variance",
    "eif_variance_for_graph",
)


def small_structures() -> list[tuple[str, Graph, dict[str, int]]]:
    """The paper's example graphs and twelve random graphs of 5 to 8
    vertices, each with cardinalities of 2 or 3 fixed per slot."""
    out = []
    for name in LAW_SUITE:
        out.append((name, parse_edges(PAPER_GRAPHS[name])))
    for i in range(12):
        out.append((f"random_{i}", random_dag(random.Random(100 + i), 5 + i % 4, 1.5, 3)))
    with_cards = []
    for i, (name, g) in enumerate(out):
        rng = random.Random(200 + i)
        with_cards.append((name, g, {v: rng.choice((2, 3)) for v in g[0]}))
    return with_cards


def large_structures() -> list[tuple[str, Graph, dict[str, int]]]:
    """Five graphs of 12 to 14 vertices, every vertex of cardinality 3; the
    smallest first, so the warm-up item is cheap."""
    graphs = [
        ("plain_12", random_dag(random.Random(0), 12, 1.5, 4)),
        ("chained_13a", chained_core(random.Random(5), 6, 2, 1, 4)),
        ("chained_13b", chained_core(random.Random(23), 5, 2, 1, 4)),
        ("plain_13", random_dag(random.Random(3), 13, 1.5, 4)),
        ("chained_14", chained_core(random.Random(12), 5, 2, 1, 4)),
    ]
    return [(name, g, {v: 3 for v in g[0]}) for name, g in graphs]


class ExactLaw:
    """Inputs of one exact item: the law and what each route needs."""

    def __init__(self, cr, name: str, bn, violates: bool) -> None:
        self.name = name
        self.bn = bn
        self.reduced = cr.reduce(bn.graph).output
        self.o = cr.classify(bn.graph).o
        self.formula = cr.derive_gformula(self.reduced)
        self.violates = violates


class Exact:
    """One item: one law through every exact route to E Y(1) and its
    variance bound."""

    ops_per_item = len(EXACT_ROUTES)

    def __init__(self, name: str, structures, violations, reference) -> None:
        self.name = name
        self.structures = structures
        self.violations = violations
        self.reference = reference

    def build(self, cr, seed: int) -> None:
        self.items: list[ExactLaw] = []
        for slot, (name, g, cards) in enumerate(self.structures()):
            law_seed = slot_rng(seed, self.name, slot).getrandbits(32)
            bn = cr.random_law(_dag(cr, g), cards, seed=law_seed, epsilon=EPSILON)
            self.items.append(ExactLaw(cr, name, bn, False))
        for body, row, law_seed in self.violations:
            g = cr.parse_graph(graph_text(body))
            bn = cr.random_law(g, {v: 2 for v in g.vertices}, seed=law_seed, epsilon=EPSILON)
            table = np.array(bn.cpts[g.treatment])
            table[row] = (1.0, 0.0)
            self.items.append(ExactLaw(cr, f"violation_{law_seed}", bn.with_cpt(g.treatment, table), True))

    def run_item(self, cr, law: ExactLaw) -> dict[str, float | str]:
        bn, red = law.bn, law.reduced
        calls = (
            lambda: cr.g_functional_exact(bn, LEVEL),
            lambda: cr.g_functional_for_graph(bn, red, LEVEL),
            lambda: cr.adjustment_exact(bn, law.o, LEVEL),
            lambda: cr.evaluate(law.formula, bn, LEVEL),
            lambda: cr.eif_variance(bn, LEVEL),
            lambda: cr.eif_variance_for_graph(bn, red, LEVEL),
        )
        out: dict[str, float | str] = {}
        for name, call in zip(EXACT_ROUTES, calls):
            try:
                out[name] = call()
            except (cr.PositivityError, cr.ZeroConditioningEvent) as exc:
                out[name] = type(exc).__name__
        return out

    def failed(self, index: int, output) -> int:
        """On a positivity violation the right outcome of every route is
        PositivityError or ZeroConditioningEvent, so a returned number
        fails; on any other law a raised error fails."""
        want = str if self.items[index].violates else float
        return sum(not isinstance(v, want) for v in output.values())

    def fingerprint(self, output):
        return output

    def check(self, cr, index: int, output) -> list[str]:
        law = self.items[index]
        if law.violates:
            return []
        if self.failed(index, output):
            return []
        return oracle.check_exact_routes(self.reference(law.bn, LEVEL), output)


# -- simulate -------------------------------------------------------------------

SIM_ITEMS = 4
SIM_N = 10_000
SIM_REPLICATIONS = 20


class Simulate:
    """One item: one ``run_simulation`` call at design a with its own
    master seed."""

    name = "simulate"
    ops_per_item = 1

    def build(self, cr, seed: int) -> None:
        self.items = [
            cr.SimConfig("a", 5, 50, SIM_N, SIM_REPLICATIONS, slot_rng(seed, self.name, i).getrandbits(32))
            for i in range(SIM_ITEMS)
        ]
        self.dgp = cr.build_benchmark_dgp(self.items[0])

    def run_item(self, cr, cfg):
        return cr.run_simulation(cfg, keep_estimates=True)

    def failed(self, index: int, output) -> int:
        return 0

    def fingerprint(self, output):
        return output.skipped_replications, {k: v.tobytes() for k, v in output.estimates.items()}

    def check(self, cr, index: int, output) -> list[str]:
        reference = oracle.mean_outcome_einsum(self.dgp, LEVEL)
        return oracle.check_simulation(reference, output.estimates, output.skipped_replications)


def make(name: str):
    if name == "reduce_dags":
        return ReduceDags()
    if name == "exact_small":
        return Exact(name, small_structures, POSITIVITY_VIOLATIONS, oracle.mean_outcome_loop)
    if name == "exact_large":
        return Exact(name, large_structures, (), oracle.mean_outcome_einsum)
    if name == "simulate":
        return Simulate()
    raise KeyError(name)


WORKLOADS = ("reduce_dags", "exact_small", "exact_large", "simulate")
