"""W- and M-criterion verdicts and the informative set."""

import numpy as np
import pytest

from causal_reduce.bn import random_law
from causal_reduce.criteria import informative_set, m_criterion, w_criterion
from causal_reduce.functionals import EifContext
from causal_reduce.graph import parse_graph
from causal_reduce.reduction import reduce
from causal_reduce.taxonomy import classify
from conftest import GOLDEN_TEXTS, golden
from oracles import random_dag


class TestWCriterion:
    def test_motivating_w4_satisfied(self):
        g = golden("motivating")
        verdict = w_criterion(g, classify(g), "W4")
        assert verdict.satisfied
        assert verdict.chain == ("O1",)

    def test_motivating_w2_w3_fail_nesting(self):
        g = golden("motivating")
        tax = classify(g)
        for v in ("W2", "W3"):
            verdict = w_criterion(g, tax, v)
            assert not verdict.satisfied
            assert verdict.failed_clause == "ii_b"
            assert verdict.failed_index == 1

    def test_covariate_web_verdicts(self):
        g = golden("covariate_web")
        tax = classify(g)
        for v in ("W1", "W2", "W6"):
            assert w_criterion(g, tax, v).satisfied
        v5 = w_criterion(g, tax, "W5")
        assert not v5.satisfied and v5.failed_clause == "i"
        # W3 and W4 fail because their shared child keeps parents they lack
        for v in ("W3", "W4"):
            verdict = w_criterion(g, tax, v)
            assert not verdict.satisfied
            assert verdict.failed_clause == "ii_b"

    def test_two_adjusters_root_w_fails_first_clause(self):
        g = golden("two_adjusters_root")
        verdict = w_criterion(g, classify(g), "W")
        assert not verdict.satisfied
        assert verdict.failed_clause == "i"

    def test_rejects_vertex_outside_w_minus_o(self):
        g = golden("motivating")
        tax = classify(g)
        with pytest.raises(ValueError):
            w_criterion(g, tax, "O1")
        with pytest.raises(ValueError):
            w_criterion(g, tax, "I1")


class TestMCriterion:
    def test_mediator_chain_verdicts(self):
        g = golden("mediator_chain")
        tax = classify(g)
        v1 = m_criterion(g, tax, "M1")
        assert not v1.satisfied and v1.failed_clause == "i"
        assert m_criterion(g, tax, "M2").satisfied
        assert m_criterion(g, tax, "M3").satisfied

    def test_mediator_plain_satisfied(self):
        g = golden("mediator_plain")
        verdict = m_criterion(g, classify(g), "M")
        assert verdict.satisfied
        assert verdict.chain == ("Y",)

    def test_mediator_confounded_fails_once_confounded(self):
        g = golden("mediator_confounded")
        verdict = m_criterion(g, classify(g), "M")
        assert not verdict.satisfied and verdict.failed_clause == "i"

    def test_rejects_outcome(self):
        g = golden("mediator_plain")
        with pytest.raises(ValueError):
            m_criterion(g, classify(g), "Y")


class TestInformativeSet:
    def test_motivating(self):
        assert informative_set(golden("motivating")) == {"A", "Y", "O1", "W2", "W3"}

    def test_covariate_web(self):
        g = golden("covariate_web")
        assert informative_set(g) == set(g.vertices) - {"I1", "W1", "W2", "W6"}

    def test_trivial(self):
        assert informative_set(golden("trivial")) == {"A", "Y"}

    def test_always_contains_core_and_excludes_ni(self, rng):
        for _ in range(30):
            g = random_dag(rng, int(rng.integers(3, 9)), 0.4, ensure_assumption=True)
            tax = classify(g)
            vstar = informative_set(g)
            assert {g.treatment, g.outcome} | tax.o <= vstar
            assert not vstar & (tax.n | tax.i)

    def test_matches_reduction_vertices(self, rng):
        for name in GOLDEN_TEXTS:
            if name.endswith("star") or name in ("motivating_slim", "motivating_reduced", "mediator_pair_flipped"):
                continue
            g = golden(name)
            assert set(reduce(g).output.vertices) == informative_set(g)
        for _ in range(25):
            g = random_dag(rng, int(rng.integers(3, 9)), 0.4, ensure_assumption=True)
            assert set(reduce(g).output.vertices) == informative_set(g)

    def test_informative_exactly_where_the_influence_function_moves(self):
        # soundness: the influence function is flat along every vertex the
        # criteria remove; completeness: it moves along every kept vertex
        # other than A and Y on at least one of a few random laws
        rng = np.random.default_rng(404)
        for _ in range(300):
            g = random_dag(rng, int(rng.integers(5, 10)), 0.4, ensure_assumption=True)
            kept = informative_set(g)
            spread = dict.fromkeys(g.vertices, 0.0)
            for _ in range(3):
                cards = {v: int(rng.integers(2, 4)) for v in g.vertices}
                bn = random_law(g, cards, seed=int(rng.integers(2**32)), epsilon=0.02)
                values = EifContext.build(bn, 1).values
                for i, v in enumerate(g.vertices):
                    spread[v] = max(spread[v], float(np.ptp(values, axis=i).max()))
            for v in g.vertices:
                if v not in kept:
                    assert spread[v] <= 1e-9, (g, v)
                elif v not in (g.treatment, g.outcome):
                    assert spread[v] > 1e-6, (g, v)


class TestOrderInvariance:
    def _shuffled_copy(self, name, rng):
        g = golden(name)
        verts = list(g.vertices)
        rng.shuffle(verts)
        edges = list(g.edges)
        rng.shuffle(edges)
        text = f"!treatment {g.treatment}\n!outcome {g.outcome}\n"
        text += "".join(v + "\n" for v in verts)
        text += "".join(f"{u} -> {v}\n" for u, v in edges)
        return parse_graph(text)

    def test_satisfied_bit_invariant_under_shuffles(self, rng):
        for name in ("motivating", "mediator_chain", "covariate_web", "mediator_plain", "two_adjusters_chained"):
            g = golden(name)
            tax = classify(g)
            base = {}
            for v in tax.w - tax.o:
                base[v] = w_criterion(g, tax, v).satisfied
            for v in tax.m - {g.outcome}:
                base[v] = m_criterion(g, tax, v).satisfied
            for _ in range(5):
                g2 = self._shuffled_copy(name, rng)
                tax2 = classify(g2)
                for v, expected in base.items():
                    if v in tax2.w - tax2.o:
                        assert w_criterion(g2, tax2, v).satisfied == expected
                    else:
                        assert m_criterion(g2, tax2, v).satisfied == expected

    def test_full_verdicts_invariant_on_goldens(self, rng):
        # child chains on these graphs are edge-forced, so even the failure
        # diagnostics are stable under re-declaration
        for name in ("motivating", "mediator_chain"):
            g = golden(name)
            tax = classify(g)
            base = {
                v: w_criterion(g, tax, v)
                for v in tax.w - tax.o
            }
            base.update(
                {v: m_criterion(g, tax, v) for v in tax.m - {g.outcome}}
            )
            for _ in range(5):
                g2 = self._shuffled_copy(name, rng)
                tax2 = classify(g2)
                for v, expected in base.items():
                    got = (
                        w_criterion(g2, tax2, v)
                        if v in tax2.w - tax2.o
                        else m_criterion(g2, tax2, v)
                    )
                    assert got.satisfied == expected.satisfied
                    assert got.failed_clause == expected.failed_clause
                    assert got.chain == expected.chain
