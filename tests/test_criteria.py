"""W- and M-criterion verdicts and the informative set."""

from collections import Counter

import numpy as np
import pytest

from causal_reduce import criteria, graph
from causal_reduce.bn import random_law
from causal_reduce.criteria import (
    criterion_verdicts,
    informative_set,
    m_criterion,
    w_criterion,
)
from causal_reduce.functionals import EifContext
from causal_reduce.graph import Dag, parse_graph
from causal_reduce.reduction import reduce
from causal_reduce.taxonomy import classify
from conftest import GOLDEN_TEXTS, golden
from oracles import (
    chained_dag,
    criterion_verdicts_reference,
    d_separated_moral,
    d_separated_oracle,
    random_dag,
)


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


# -- one pass, judged on the graph reduced so far ----------------------------

def _covariate_mediator_chain(length: int) -> Dag:
    """A covariate chain C_L -> ... -> C_1 into W0, a confounder, and a
    mediator chain A -> D_1 -> ... -> D_L -> E -> Y with A a parent of every
    chain vertex.  On the input graph the clause (i) ball of C_j walks the
    whole chain above it."""
    cs = [f"C{k}" for k in range(1, length + 1)]
    ds = [f"D{k}" for k in range(1, length + 1)]
    edges = [("A", "Y"), ("W0", "A"), ("W0", "Y"), ("C1", "W0"), ("E", "Y"), ("A", "E")]
    edges += [(cs[k + 1], cs[k]) for k in range(length - 1)]
    edges += [("A", "D1")] + [(u, v) for u, v in zip(ds, ds[1:] + ["E"])]
    edges += [("A", v) for v in ds[1:]]
    return Dag(cs + ["W0", "A"] + ds + ["E", "Y"], edges, "A", "Y")


def _labels(g: Dag, m: int) -> set[str]:
    return {v for i, v in enumerate(g.vertices) if m >> i & 1}


def _tables(monkeypatch):
    """Record, per group, the answer tables that ``criterion_verdicts``
    hands to the criteria, and the size of each when a call starts."""
    seen = {"W": [], "M": []}
    for name, fn in (("W", criteria.w_criterion), ("M", criteria.m_criterion)):
        def recording(g, tax, v, *, answers=None, _name=name, _fn=fn):
            seen[_name].append((answers, len(answers)))
            return _fn(g, tax, v, answers=answers)

        monkeypatch.setattr(criteria, f"{name.lower()}_criterion", recording)
    return seen


def _balls(monkeypatch):
    """Record every ball the criteria run: whether it ran on the input
    graph, a copy of the parent masks it ran on, the query masks (x, y, z)
    and the answer."""
    runs = []
    separated = criteria._separated

    def recording(on, xm, ym, zm):
        sep = separated(on, xm, ym, zm)
        runs.append((isinstance(on, Dag), tuple(on._masks[0]), xm, ym, zm, sep))
        return sep

    monkeypatch.setattr(criteria, "_separated", recording)
    return runs


def _parity_corpus():
    rng = np.random.default_rng(2028)
    for _ in range(220):
        yield random_dag(rng, int(rng.integers(3, 11)), float(rng.uniform(0.2, 0.6)), ensure_assumption=True)
    for _ in range(30):
        yield chained_dag(rng, int(rng.integers(4, 9)), int(rng.integers(1, 4)), int(rng.integers(1, 3)), 6)


class TestAnswerTables:
    def test_pass_matches_fresh_calls_and_the_oracle(self, monkeypatch):
        tables = _tables(monkeypatch)
        balls = _balls(monkeypatch)
        kinds = Counter()
        for g in _parity_corpus():
            dsep = d_separated_oracle if len(g.vertices) <= 8 else d_separated_moral
            tax = classify(g)
            for group in tables.values():
                group.clear()
            balls.clear()
            verdicts = criterion_verdicts(g, tax)
            want = criterion_verdicts_reference(g, tax)
            assert list(verdicts) == list(want)
            for v, verdict in verdicts.items():
                fresh = w_criterion if v in tax.w else m_criterion
                assert fresh(g, tax, v) == verdict
                assert verdict == want[v]
                kinds[verdict.failed_clause] += 1
            # every ball of the pass, run on the graph reduced so far or on
            # the input, gave the input graph's answer to its query, and so
            # does every answer a table holds at the end
            for _, _, xm, ym, zm, sep in balls:
                assert sep is dsep(g, _labels(g, xm), _labels(g, ym), _labels(g, zm))
            for name, targets in (("W", tax.o), ("M", {g.treatment, g.outcome} | tax.o_min)):
                table = tables[name][0][0] if tables[name] else {}
                for (xm, zm), sep in table.items():
                    assert sep is dsep(g, _labels(g, xm), targets, _labels(g, zm))
        assert set(kinds) == {None, "i", "ii_a", "ii_b", "ii_c"}

    def test_one_table_per_group_per_pass(self, monkeypatch):
        tables = _tables(monkeypatch)
        g = chained_dag(np.random.default_rng(5), 6, 3, 2, 5)
        tax = classify(g)
        owners = []
        for _ in range(2):
            for group in tables.values():
                group.clear()
            criterion_verdicts(g, tax)
            w, m = ([table for table, _ in tables[k]] for k in ("W", "M"))
            assert w and m
            assert all(t is w[0] for t in w) and all(t is m[0] for t in m)
            assert w[0] is not m[0]
            # each table starts empty: nothing carries over between passes
            assert tables["W"][0][1] == tables["M"][0][1] == 0
            owners += [w[0], m[0]]
            # the W table answers only queries against O
            for (xm, zm), sep in w[0].items():
                assert sep == d_separated_moral(g, _labels(g, xm), tax.o, _labels(g, zm))
        assert len({id(t) for t in owners}) == 4

    @pytest.mark.parametrize("length", [10, 20])
    def test_each_distinct_query_runs_the_ball_once(self, monkeypatch, length):
        # every vertex but E leaves the working masks once judged, so each
        # asks its clause (i) query and the clause (ii_c) query of its one
        # chain vertex on a graph that no other vertex's queries saw; E fails
        # at clause (ii_b) after its clause (i) ball, and is judged again on
        # the input graph, since mediators left before it
        g = _covariate_mediator_chain(length)
        tax = classify(g)
        balls = _balls(monkeypatch)
        verdicts = criterion_verdicts(g, tax)
        assert [v for v, d in verdicts.items() if not d.satisfied] == ["E"]
        assert verdicts["E"].failed_clause == "ii_b"
        assert len(set(balls)) == len(balls)
        on_input = [ball for ball in balls if ball[0]]
        assert len(on_input) == 1
        satisfied = [d for d in verdicts.values() if d.satisfied]
        assert len(balls) - len(on_input) == sum(1 + len(d.chain) for d in satisfied) + 1

    def test_chain_balls_stay_short(self, monkeypatch):
        # the covariate chain costs O(L) ball steps, where judging every
        # vertex on the input graph costs O(L^2): count the frontier unions
        unions = []
        union = graph._union

        def counted(masks, m):
            unions.append(1)
            return union(masks, m)

        monkeypatch.setattr(graph, "_union", counted)
        steps = []
        for length in (10, 20, 40):
            g = _covariate_mediator_chain(length)
            tax = classify(g)
            unions.clear()
            criterion_verdicts(g, tax)
            steps.append(len(unions))
        assert steps[1] <= 2.5 * steps[0] and steps[2] <= 2.5 * steps[1], steps

    def test_reports_the_chain_on_the_input_graph(self):
        # V4 (chain V5, V3, V6) leaves first, which gives V5 the chain
        # (V3, V6) on the working masks; the report keeps the input's
        g = parse_graph(
            "!treatment V1\n!outcome V2\n" + "".join(f"V{i}\n" for i in range(7))
            + "V4 -> V5\nV4 -> V3\nV4 -> V6\nV5 -> V3\nV5 -> V1\nV3 -> V1\n"
            + "V3 -> V6\nV3 -> V2\nV6 -> V2\nV0 -> V2\nV1 -> V2\n"
        )
        tax = classify(g)
        verdicts = criterion_verdicts(g, tax)
        assert verdicts["V4"].satisfied and verdicts["V4"].chain == ("V5", "V3", "V6")
        assert verdicts["V5"] == w_criterion(g, tax, "V5")
        assert verdicts["V5"].satisfied and verdicts["V5"].chain == ("V3",)
