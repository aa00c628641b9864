"""W- and M-criterion verdicts and the informative set."""

from collections import Counter

import numpy as np
import pytest

from causal_reduce import criteria
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
from oracles import d_separated_moral, d_separated_oracle, random_dag


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


# -- one answer table per group and pass ------------------------------------

def _chained(rng, core: int, w_chains: int, m_chains: int, length: int) -> Dag:
    """A random core with covariate chains ``C_k -> ... -> C_1`` into core
    covariates and mediator chains ``D_1 -> ... -> D_k -> E -> Y`` off a
    source, the treatment or a core mediator, that is a parent of every
    chain vertex."""
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
    return Dag(vertices, edges, a, y)


def _groups(g: Dag, tax):
    """(members, group, targets) of the W- and the M-criterion."""
    yield "W", tax.w - tax.o, tax.w, tax.o
    yield "M", tax.m - {g.outcome}, tax.m, frozenset({g.treatment, g.outcome}) | tax.o_min


def _reference(g: Dag, v: str, group, targets, dsep):
    """The criterion of ``v`` on label sets, with ``dsep`` for separation:
    its verdict as a tuple and the (x, z) queries its clauses asked, with
    their answers, x taken outside z."""
    chain = g.sort_topologically(g.children(v) & group)
    asked = []

    def separated(x, z):
        x, z = frozenset(x) - frozenset(z), frozenset(z)
        asked.append((x, z, dsep(g, x, targets, z)))
        return asked[-1][2]

    def verdict(clause, t):
        return (clause is None, clause, t, chain), asked

    last = chain[-1]
    if not separated({v}, {last} | (g.parents(last) - {v})):
        return verdict("i", None)
    prev = v
    for t, cur in enumerate(chain, start=1):
        if not g.has_edge(prev, cur):
            return verdict("ii_a", t)
        if not g.parents(cur) <= g.parents(prev) | {prev}:
            return verdict("ii_b", t)
        if not separated(g.parents(prev) - g.parents(cur), g.parents(cur)):
            return verdict("ii_c", t)
        prev = cur
    return verdict(None, None)


def _mask(g: Dag, labels) -> int:
    return sum(1 << g.vertices.index(v) for v in labels)


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


def _parity_corpus():
    rng = np.random.default_rng(2028)
    for _ in range(220):
        yield random_dag(rng, int(rng.integers(3, 11)), float(rng.uniform(0.2, 0.6)), ensure_assumption=True)
    for _ in range(30):
        yield _chained(rng, int(rng.integers(4, 9)), int(rng.integers(1, 4)), int(rng.integers(1, 3)), 6)


class TestAnswerTables:
    def test_pass_matches_fresh_calls_and_the_oracle(self, monkeypatch):
        tables = _tables(monkeypatch)
        kinds = Counter()
        for g in _parity_corpus():
            dsep = d_separated_oracle if len(g.vertices) <= 8 else d_separated_moral
            tax = classify(g)
            for group in tables.values():
                group.clear()
            verdicts = criterion_verdicts(g, tax)
            for name, members, group, targets in _groups(g, tax):
                fresh = w_criterion if name == "W" else m_criterion
                table = tables[name][0][0] if tables[name] else {}
                for v in (v for v in g.vertices if v in members):
                    verdict = verdicts[v]
                    assert fresh(g, tax, v) == verdict
                    want, asked = _reference(g, v, group, targets, dsep)
                    assert (verdict.satisfied, verdict.failed_clause, verdict.failed_index, verdict.chain) == want
                    # every answer a clause used is the oracle's on the same
                    # label sets, and the table holds it under its masks
                    for x, z, sep in asked:
                        assert table[_mask(g, x), _mask(g, z)] is sep
                    kinds[verdict.failed_clause] += 1
        assert set(kinds) == {None, "i", "ii_a", "ii_b", "ii_c"}

    def test_one_table_per_group_per_pass(self, monkeypatch):
        tables = _tables(monkeypatch)
        g = _chained(np.random.default_rng(5), 6, 3, 2, 5)
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
                x = {v for i, v in enumerate(g.vertices) if xm >> i & 1}
                z = {v for i, v in enumerate(g.vertices) if zm >> i & 1}
                assert sep == d_separated_moral(g, x, tax.o, z)
        assert len({id(t) for t in owners}) == 4

    @pytest.mark.parametrize("length", [10, 20])
    def test_each_distinct_query_runs_the_ball_once(self, monkeypatch, length):
        # a covariate chain C_L -> ... -> C_1 into W0, a confounder, and a
        # mediator chain A -> D_1 -> ... -> D_L -> E -> Y with A a parent of
        # every chain vertex: the clause (ii_c) query of each chain vertex
        # but the top one is the clause (i) query of its parent
        cs = [f"C{k}" for k in range(1, length + 1)]
        ds = [f"D{k}" for k in range(1, length + 1)]
        edges = [("A", "Y"), ("W0", "A"), ("W0", "Y"), ("C1", "W0"), ("E", "Y"), ("A", "E")]
        edges += [(cs[k + 1], cs[k]) for k in range(length - 1)]
        edges += [("A", "D1")] + [(u, v) for u, v in zip(ds, ds[1:] + ["E"])]
        edges += [("A", v) for v in ds[1:]]
        g = Dag(cs + ["W0", "A"] + ds + ["E", "Y"], edges, "A", "Y")
        tax = classify(g)

        group = None
        runs = Counter()
        separated = criteria._separated

        def counted(*args):
            runs[group] += 1
            return separated(*args)

        monkeypatch.setattr(criteria, "_separated", counted)
        for name in ("W", "M"):
            fn = getattr(criteria, f"{name.lower()}_criterion")

            def entered(*args, _name=name, _fn=fn, **kw):
                nonlocal group
                group = _name
                return _fn(*args, **kw)

            monkeypatch.setattr(criteria, f"{name.lower()}_criterion", entered)
        verdicts = criterion_verdicts(g, tax)
        assert [v for v, d in verdicts.items() if not d.satisfied] == ["E"]
        for name, members, grp, targets in _groups(g, tax):
            asked = [
                (_mask(g, x), _mask(g, z))
                for v in g.vertices if v in members
                for x, z, _ in _reference(g, v, grp, targets, d_separated_moral)[1]
            ]
            assert runs[name] == len(set(asked))
            assert runs[name] <= len(asked) * 0.6
