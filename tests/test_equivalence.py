"""Markov and causal Markov equivalence."""

import pytest

from causal_reduce.equivalence import causal_markov_equivalent, markov_equivalent
from causal_reduce.functionals import g_functional_for_graph
from causal_reduce.bn import random_law
from causal_reduce.graph import Dag, GraphError
from conftest import golden


def _chain(a_to_b: bool, b_to_c: bool) -> Dag:
    edges = [("A", "B") if a_to_b else ("B", "A")]
    edges.append(("B", "C") if b_to_c else ("C", "B"))
    return Dag(["A", "B", "C"], edges, "A", "C")


class TestMarkov:
    def test_reflexive(self):
        g = golden("motivating")
        assert markov_equivalent(g, g)

    def test_textbook_chains(self):
        forward = _chain(True, True)
        backward = _chain(False, False)
        collider = Dag(["A", "B", "C"], [("A", "B"), ("C", "B")], "A", "C")
        assert markov_equivalent(forward, backward)
        assert not markov_equivalent(collider, forward)

    def test_motivating_pair(self):
        assert markov_equivalent(golden("motivating"), golden("motivating_flipped"))

    def test_vertex_mismatch(self):
        with pytest.raises(GraphError):
            markov_equivalent(golden("motivating"), golden("motivating_reduced"))

    def test_symmetry(self):
        g1, g2 = golden("motivating"), golden("motivating_flipped")
        assert markov_equivalent(g1, g2) == markov_equivalent(g2, g1)


class TestCausalMarkov:
    @pytest.mark.parametrize(
        "roles, message",
        [
            (None, "must share a vertex set"),
            (("A", "O1"), "must share treatment and outcome"),
            (("I1", "Y"), "must share treatment and outcome"),
        ],
        ids=["vertices", "outcome", "treatment"],
    )
    def test_mismatch_refused(self, roles, message):
        g = golden("motivating")
        other = golden("motivating_reduced") if roles is None else Dag(g.vertices, g.edges, *roles)
        with pytest.raises(GraphError, match=message):
            causal_markov_equivalent(g, other)

    def test_motivating_pair(self):
        assert causal_markov_equivalent(golden("motivating"), golden("motivating_flipped"))

    def test_mediator_family_pair(self):
        assert causal_markov_equivalent(golden("mediator_pair"), golden("mediator_pair_flipped"))

    def test_extra_edge_breaks_it(self):
        g = golden("two_adjusters")
        g2 = Dag(g.vertices, list(g.edges) + [("O1", "O2")], "A", "Y")
        assert not causal_markov_equivalent(g, g2)

    def test_causal_implies_markov(self):
        pairs = [
            (golden("motivating"), golden("motivating_flipped")),
            (golden("mediator_pair"), golden("mediator_pair_flipped")),
        ]
        for g1, g2 in pairs:
            if causal_markov_equivalent(g1, g2):
                assert markov_equivalent(g1, g2)

    def test_g_functionals_agree_on_equivalent_pairs(self, rng):
        pairs = [
            (golden("motivating"), golden("motivating_flipped")),
            (golden("mediator_pair"), golden("mediator_pair_flipped")),
        ]
        for g1, g2 in pairs:
            assert causal_markov_equivalent(g1, g2)
            for seed in range(25):
                cards = {v: int(rng.integers(2, 4)) for v in g1.vertices}
                bn = random_law(g1, cards, seed=seed, epsilon=0.02)
                v1 = g_functional_for_graph(bn, g1, 1)
                v2 = g_functional_for_graph(bn, g2, 1)
                assert abs(v1 - v2) <= 1e-10
