"""The benchmark's own checks: each independent computation reproduces the
paper's worked example, and each check rejects a wrong answer.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import numpy as np
import pytest

import causal_reduce as cr
import oracle
from inputs import PAPER_GRAPHS, graph_text, parse_edges, taxonomy
from workloads import Exact, ReduceDags, make

MOTIVATING = parse_edges(PAPER_GRAPHS["motivating"])


def motivating_dag():
    return cr.parse_graph(graph_text(PAPER_GRAPHS["motivating"]))


def test_taxonomy_reproduces_the_worked_example():
    roles = taxonomy(*MOTIVATING)
    assert roles["O"] == {"O1"}
    assert roles["I"] == {"I1"}
    assert roles["N"] == set()
    assert roles["M"] == {"Y"}
    assert roles["W"] == {"O1", "W1", "W2", "W3", "W4"}


def test_reduction_checks_accept_the_worked_example():
    g = motivating_dag()
    reduced = cr.reduce(g).output
    assert set(reduced.vertices) == {"A", "Y", "O1", "W2", "W3"}
    assert reduced == cr.parse_graph(graph_text(PAPER_GRAPHS["motivating_reduced"]))
    assert oracle.check_taxonomy(MOTIVATING, cr.classify(g)) == []
    assert oracle.check_reduction(MOTIVATING, reduced.vertices, cr.informative_set(g)) == []
    assert oracle.visit_order(MOTIVATING, g.vertices) == ["W4", "W2", "W3", "W1"]


def test_check_reduction_rejects_a_dropped_vertex():
    informative = {"A", "Y", "O1", "W2", "W3"}
    assert oracle.check_reduction(MOTIVATING, informative - {"W2"}, informative)
    problems = oracle.check_reduction(MOTIVATING, informative - {"O1"}, informative - {"O1"})
    assert problems == ["reduced graph lost ['O1']"]


def test_check_taxonomy_rejects_a_misplaced_vertex():
    tax = cr.classify(motivating_dag())
    wrong = cr.Taxonomy(tax.n, tax.i, tax.w, tax.m, tax.o - {"O1"}, tax.o_min)
    assert oracle.check_taxonomy(MOTIVATING, wrong) == ["O: expected ['O1'], got []"]


def test_check_formula_text_counts_factors():
    text = "sum_{y,o1,w2,w3} y * p(y|a,o1) * p(o1|w2,w3) * p(w2) * p(w3)"
    assert oracle.check_formula_text(text, 5) == []
    assert oracle.check_formula_text(text, 6)


def test_reference_sums_reproduce_the_worked_example():
    g = motivating_dag()
    rng = np.random.default_rng(5)
    for _ in range(5):
        cards = {v: int(rng.integers(2, 4)) for v in g.vertices}
        bn = cr.random_law(g, cards, seed=int(rng.integers(2**32)), epsilon=0.02)
        loop = oracle.mean_outcome_loop(bn, 1)
        assert abs(loop - oracle.mean_outcome_einsum(bn, 1)) <= 1e-12
        assert abs(loop - cr.g_functional_exact(bn, 1)) <= oracle.EXACT_TOL


def test_check_exact_routes_rejects_perturbed_values():
    good = {
        "g_functional_exact": 0.25,
        "g_functional_for_graph": 0.25,
        "adjustment_exact": 0.25,
        "evaluate": 0.25,
        "eif_variance": 1.5,
        "eif_variance_for_graph": 1.5,
    }
    assert oracle.check_exact_routes(0.25, good) == []
    assert oracle.check_exact_routes(0.25 + 1e-9, good)
    for key, value in (
        ("evaluate", 0.25 + 1e-9),
        ("adjustment_exact", float("nan")),
        ("eif_variance_for_graph", 1.5 + 1e-7),
    ):
        assert oracle.check_exact_routes(0.25, {**good, key: value})
    negative = {**good, "eif_variance": -1.0, "eif_variance_for_graph": -1.0}
    assert oracle.check_exact_routes(0.25, negative)


def test_check_simulation_rejects_a_biased_mean_and_skips():
    rng = np.random.default_rng(0)
    estimates = {"g": 0.6 + 0.01 * rng.standard_normal(20)}
    assert oracle.check_simulation(0.6, estimates, 0) == []
    assert oracle.check_simulation(0.6, {"g": estimates["g"] + 0.05}, 0)
    assert oracle.check_simulation(0.6, estimates, 1) == ["1 replications skipped"]
    outside = estimates["g"].copy()
    outside[0] = 1.2
    assert oracle.check_simulation(0.6, {"g": outside}, 0)


@pytest.fixture(scope="module")
def reduce_dags():
    w = ReduceDags()
    w.build(cr, 1)
    return w


def test_reduce_dags_check_accepts_the_program_and_rejects_a_dropped_vertex(reduce_dags):
    w = reduce_dags
    index = 0  # the motivating graph
    reduced, text = w.run_item(cr, w.items[index])
    assert w.check(cr, index, (reduced, text)) == []
    dropped = cr.Dag(
        [v for v in reduced.vertices if v != "W2"],
        [e for e in reduced.edges if "W2" not in e],
        "A",
        "Y",
    )
    problems = w.check(cr, index, (dropped, text))
    assert any("differs from informative set" in p for p in problems)
    assert any("reversed visit order" in p for p in problems)
    assert any("factors" in p for p in problems)
    no_adjuster = cr.parse_graph(graph_text("A -> Y\n"))
    assert any("g_functional_for_graph" in p for p in w.check(cr, index, (no_adjuster, "p(y|a)")))


def test_exact_check_rejects_a_perturbed_route():
    w = make("exact_small")
    w.build(cr, 1)
    out = w.run_item(cr, w.items[1])
    assert w.failed(1, out) == 0
    assert w.check(cr, 1, out) == []
    assert w.check(cr, 1, {**out, "evaluate": out["evaluate"] + 1e-8})


def test_exact_failed_counts_numbers_on_violations_and_errors_elsewhere():
    w = Exact("exact_small", lambda: [], (("O -> A\nO -> Y\nA -> Y\n", (0,), 1),), oracle.mean_outcome_loop)
    w.build(cr, 1)
    assert w.items[0].violates
    errors = {"g_functional_exact": "PositivityError", "adjustment_exact": "ZeroConditioningEvent"}
    assert w.failed(0, {**errors, "evaluate": 0.3}) == 1
    assert w.failed(0, errors) == 0
    w.items[0].violates = False
    assert w.failed(0, {**errors, "evaluate": 0.3}) == 2
