"""Projections, the reduction loop and the latent-projection contrast."""

from collections import Counter

import pytest

from causal_reduce import criteria, reduction, taxonomy
from causal_reduce.criteria import CriterionVerdict, informative_set
from causal_reduce.graph import Dag, GraphError, parse_graph
from causal_reduce.reduction import (
    latent_projection,
    project_out_ni,
    project_vertex,
    reduce,
)
from causal_reduce.taxonomy import Taxonomy, classify
from conftest import GOLDEN_TEXTS, golden
from oracles import (
    all_simple_paths,
    chained_dag,
    criterion_verdicts_reference,
    random_dag,
    reduce_rechecking,
)


class TestProjectOutNI:
    def test_motivating_flipped_to_motivating_slim(self):
        assert project_out_ni(golden("motivating_flipped")) == golden("motivating_slim")

    def test_mediator_chain_removes_instrument(self):
        out = project_out_ni(golden("mediator_chain"))
        assert "I1" not in out.vertices
        assert set(out.edges) == set(golden("mediator_chain").edges) - {("I1", "A")}

    def test_identity_when_empty(self):
        g = golden("two_adjusters")
        assert project_out_ni(g) == g

    def test_chain_through_instruments(self):
        g = parse_graph(
            "!treatment A\n!outcome Y\nA -> Y\nW -> I1\nI1 -> I2\nI2 -> A\nW -> Y"
        )
        out = project_out_ni(g)
        assert set(out.vertices) == {"A", "Y", "W"}
        assert out.has_edge("W", "A")

    def test_edges_are_the_latent_projections_directed_part(self, rng):
        with_i = 0
        for _ in range(300):
            n = int(rng.integers(3, 12))
            g = random_dag(rng, n, float(rng.uniform(0.2, 0.6)), ensure_assumption=True)
            tax = classify(g)
            with_i += bool(tax.i)
            keep = set(g.vertices) - tax.n - tax.i
            out = project_out_ni(g)
            assert set(out.edges) == latent_projection(g, keep).directed_edges
        assert with_i > 20


class TestProjectVertex:
    def test_single_child_saturation(self):
        g = parse_graph("!treatment A\n!outcome Y\nA -> Y\nP -> V\nV -> Y")
        out = project_vertex(g, "V", ["Y"])
        assert set(out.vertices) == {"A", "Y", "P"}
        assert out.has_edge("P", "Y")

    def test_four_child_saturation(self):
        # four-child example with pi = (Wj1, Wj2, Wj3, A)
        g = parse_graph(
            "!treatment A\n!outcome Y\n"
            "Wl -> Wj\nWk -> Wj\n"
            "Wj -> Wj1\nWj -> Wj2\nWj -> Wj3\nWj -> A\n"
            "Wj1 -> Wj2\nWj2 -> Wj3\nWl -> Wj1\nA -> Y"
        )
        out = project_vertex(g, "Wj", ["Wj1", "Wj2", "Wj3", "A"])
        expected = parse_graph(
            "!treatment A\n!outcome Y\n"
            "Wl -> Wj1\nWl -> Wj2\nWl -> Wj3\nWl -> A\n"
            "Wk -> Wj1\nWk -> Wj2\nWk -> Wj3\nWk -> A\n"
            "Wj1 -> Wj2\nWj1 -> Wj3\nWj1 -> A\n"
            "Wj2 -> Wj3\nWj2 -> A\nWj3 -> A\nA -> Y"
        )
        assert out == expected

    def test_rejects_wrong_child_set(self):
        g = parse_graph("!treatment A\n!outcome Y\nA -> Y\nV -> Y\nV -> A")
        with pytest.raises(GraphError):
            project_vertex(g, "V", ["Y"])

    def test_rejects_non_topological_order(self):
        g = parse_graph(
            "!treatment A\n!outcome Y\nA -> Y\nV -> C1\nV -> C2\nC1 -> C2\nC2 -> Y"
        )
        with pytest.raises(GraphError, match="pi is not a topological ordering"):
            project_vertex(g, "V", ["C2", "C1"])

    def test_rejects_nesting_violation(self):
        g = parse_graph(
            "!treatment A\n!outcome Y\nA -> Y\nV -> C1\nV -> C2\nC1 -> C2\n"
            "P -> C1\nC2 -> Y"
        )
        # Pa(C1) = {V, P} not nested in {V} u Pa(V) = {V}
        with pytest.raises(GraphError):
            project_vertex(g, "V", ["C1", "C2"])

    def test_marginal_law_markov_to_projected_graph(self, rng):
        # replay every projection step of the golden reductions: a random law
        # Markov to the current graph must have its marginal Markov to the
        # projected graph
        from causal_reduce.bn import joint_table, random_law
        from oracles import local_markov_holds

        for name in ("motivating", "mediator_chain", "two_adjusters_chained", "mediator_pair"):
            g = golden(name)
            report = reduce(g)
            cur = project_out_ni(g)
            for vertex, reason, pi in report.removed:
                if reason in ("N", "I"):
                    continue
                nxt = project_vertex(cur, vertex, pi)
                for seed in range(3):
                    bn = random_law(
                        cur, {v: 2 for v in cur.vertices}, seed=seed, epsilon=0.05
                    )
                    joint = joint_table(bn)
                    axis = cur.vertices.index(vertex)
                    marg = joint.sum(axis=axis)
                    labels = [v for v in cur.vertices if v != vertex]
                    assert local_markov_holds(marg, labels, nxt)
                cur = nxt
            assert cur == report.output


class TestReduceGolden:
    def test_motivating(self):
        report = reduce(golden("motivating"))
        assert report.output == golden("motivating_reduced")
        assert [r[:2] for r in report.removed] == [
            ("I1", "I"),
            ("W4", "W-criterion"),
            ("W1", "W-criterion"),
        ]
        assert report.removed[1][2] == ("O1", "A")
        assert list(report.verdicts) == ["W4", "W2", "W3", "W1"]
        for kept in ("W2", "W3"):
            assert report.verdicts[kept] == CriterionVerdict(kept, False, "ii_b", 1, ("W4",))
        assert report.verdicts["W4"].satisfied and report.verdicts["W1"].satisfied

    def test_mediator_family(self):
        g1star = parse_graph("!treatment A\n!outcome Y\nA -> Y\nO -> Y")
        assert reduce(golden("mediator_plain")).output == g1star
        assert reduce(golden("mediator_confounded")).output == golden("mediator_confounded")
        assert reduce(golden("mediator_pair")).output == golden("trivial")

    def test_adjuster_family(self):
        assert reduce(golden("two_adjusters")).output == golden("two_adjusters")
        assert reduce(golden("two_adjusters_root")).output == golden("two_adjusters_root")
        assert reduce(golden("two_adjusters_chained")).output == golden("two_adjusters_chained_reduced")

    def test_mediator_chain(self):
        assert reduce(golden("mediator_chain")).output == golden("mediator_chain_reduced")

    def test_covariate_web(self):
        assert reduce(golden("covariate_web")).output == golden("covariate_web_reduced")

    def test_report_bookkeeping(self):
        report = reduce(golden("covariate_web"))
        removed = {r[0] for r in report.removed}
        assert removed == {"I1", "W1", "W2", "W6"}
        assert set(report.output.vertices) == set(report.input.vertices) - removed
        assert report.output.treatment == "A"
        assert report.output.outcome == "Y"


class TestReduceProperties:
    def _loop_vertices(self, g):
        tax = classify(g)
        cur = project_out_ni(g)
        return [
            v
            for v in cur.vertices
            if v not in {g.treatment, g.outcome} | tax.o
        ]

    def test_order_independence(self, rng):
        for name in ("motivating", "mediator_chain", "covariate_web", "mediator_pair", "two_adjusters_chained"):
            g = golden(name)
            base = reduce(g).output
            loop = self._loop_vertices(g)
            for _ in range(20):
                perm = list(rng.permutation(loop))
                assert reduce(g, order=perm).output == base

    def test_order_must_be_a_permutation(self):
        g = golden("motivating")
        loop = self._loop_vertices(g)
        for order in (loop[:-1], loop + loop[:1], loop[:-1] + ["A"]):
            with pytest.raises(GraphError, match="order must be a permutation"):
                reduce(g, order=order)

    def test_idempotence(self, rng):
        for name in ("motivating", "mediator_chain", "covariate_web"):
            once = reduce(golden(name))
            twice = reduce(once.output)
            assert twice.output == once.output
            assert twice.removed == ()
        for _ in range(15):
            g = random_dag(rng, int(rng.integers(3, 9)), 0.4, ensure_assumption=True)
            once = reduce(g)
            twice = reduce(once.output)
            assert twice.output == once.output
            assert twice.removed == ()

    def test_vertex_set_matches_informative_set(self, rng):
        for _ in range(25):
            g = random_dag(rng, int(rng.integers(3, 9)), 0.4, ensure_assumption=True)
            assert set(reduce(g).output.vertices) == informative_set(g)

    def test_taxonomy_preserved(self):
        for name in ("motivating", "mediator_chain", "covariate_web", "mediator_plain", "two_adjusters_chained"):
            g = golden(name)
            before = classify(g)
            after = classify(reduce(g).output)
            assert before.o == after.o
            assert before.o_min == after.o_min


class TestReduceAgainstRechecking:
    """reduce judges every vertex once, on the graph its criteria pass has
    reduced so far, and reports the verdicts on the input graph; the oracle
    re-classifies and re-judges on the current graph before every step."""

    def _check(self, g, order=None):
        report = reduce(g, order=order)
        output, removed, steps = reduce_rechecking(g, order)
        assert report.output == output
        assert report.removed == removed
        tax0 = classify(g)
        assert report.verdicts == criterion_verdicts_reference(g, tax0)
        for cur, tax, verdict in steps:
            left = set(cur.vertices)
            none = frozenset()
            assert tax == Taxonomy(none, none, tax0.w & left, tax0.m & left, tax0.o, tax0.o_min)
            assert verdict.satisfied == report.verdicts[verdict.vertex].satisfied

    def test_random_dags(self, rng):
        for _ in range(300):
            n = int(rng.integers(3, 11))
            g = random_dag(rng, n, float(rng.uniform(0.2, 0.6)), ensure_assumption=True)
            self._check(g)
            self._check(g, [str(v) for v in rng.permutation(list(reduce(g).verdicts))])

    def test_golden_graphs(self):
        for name in GOLDEN_TEXTS:
            g = golden(name)
            self._check(g)
            self._check(g, list(reduce(g).verdicts)[::-1])

    def test_chained_graphs(self, rng):
        # covariate and mediator chains, the ones the criteria pass projects
        # out one vertex at a time, with I and N side chains hanging off them
        for _ in range(48):
            g = chained_dag(
                rng, int(rng.integers(4, 9)), int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                int(rng.integers(2, 7)), int(rng.integers(1, 3)),
            )
            tax = classify(g)
            assert tax.i and tax.n
            self._check(g)
            self._check(g, [str(v) for v in rng.permutation(list(reduce(g).verdicts))])


class TestReduceCost:
    @staticmethod
    def _chain():
        # W1 -> ... -> W60 -> A -> M1 -> ... -> M20 -> Y, with W60 -> Y and
        # skip edges over one vertex, which keep most mediators
        ws = [f"W{i}" for i in range(1, 61)]
        ms = [f"M{i}" for i in range(1, 21)]
        chain = ws + ["A"] + ms + ["Y"]
        edges = list(zip(chain, chain[1:])) + [("W60", "Y")]
        edges += [(ws[i], ws[i + 2]) for i in range(0, 58, 7)]
        edges += [(ms[i], ms[i + 2]) for i in range(0, 18, 5)]
        return Dag(chain, edges, "A", "Y")

    def test_builds_one_dag(self, monkeypatch):
        g = self._chain()
        init = Dag.__init__
        builds = []

        def counted(self, *args, **kw):
            builds.append(1)
            init(self, *args, **kw)

        monkeypatch.setattr(Dag, "__init__", counted)
        for order in (None, list(reduce(g).verdicts)[::-1]):
            builds.clear()
            report = reduce(g, order=order)
            assert len(builds) == 1
            assert len(report.removed) > 40

    def test_judges_each_vertex_once(self, monkeypatch):
        g = self._chain()
        tax = classify(g)
        calls = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)

            monkeypatch.setattr(module, name, counted)

        for module in (reduction, criteria, taxonomy):
            count(module, "classify")
        count(criteria, "w_criterion")
        count(criteria, "m_criterion")
        report = reduce(g)
        assert len(report.input.vertices) >= 80
        assert calls["classify"] <= 2
        assert calls["w_criterion"] <= len(tax.w - tax.o)
        assert calls["m_criterion"] <= len(tax.m - {"Y"})
        kept = {v for v, d in report.verdicts.items() if not d.satisfied}
        assert kept and len(report.removed) > 40


class TestLatentProjection:
    def test_marginalized_confounder_adds_bidirected(self):
        g = golden("motivating")
        view = latent_projection(g, {"A", "Y", "O1", "W2", "W3"})
        assert view.directed_edges == {
            ("A", "Y"),
            ("O1", "Y"),
            ("W2", "O1"),
            ("W3", "O1"),
            ("W2", "A"),
            ("W3", "A"),
        }
        assert view.bidirected_edges == {frozenset({"A", "O1"})}

    def test_keep_all_is_identity(self):
        g = golden("covariate_web")
        view = latent_projection(g, g.vertices)
        assert view.directed_edges == set(g.edges)
        assert view.bidirected_edges == frozenset()

    def test_requires_treatment_outcome(self):
        g = golden("motivating")
        with pytest.raises(GraphError):
            latent_projection(g, {"Y", "O1"})

    def test_directed_part_is_reachability_through_latents(self, rng):
        for _ in range(20):
            g = random_dag(rng, 7, 0.4)
            labels = list(g.vertices)
            keep = {g.treatment, g.outcome} | set(
                labels[i] for i in rng.choice(7, size=3, replace=False)
            )
            view = latent_projection(g, keep)
            for u in keep:
                for v in keep:
                    if u == v:
                        continue
                    # brute force: directed path with interior outside keep
                    found = False
                    stack = [(u, ())]
                    while stack and not found:
                        node, interior = stack.pop()
                        for c in g.children(node):
                            if c == v:
                                if all(x not in keep for x in interior):
                                    found = True
                                    break
                            elif c not in keep and c not in interior:
                                stack.append((c, interior + (c,)))
                    assert ((u, v) in view.directed_edges) == found
            # brute force: a marginalized vertex reaches both ends along
            # directed paths whose interiors are all marginalized
            reached = [
                {
                    t
                    for t in keep
                    for path in all_simple_paths(g, s, t)
                    if all(g.has_edge(p, q) for p, q in zip(path, path[1:]))
                    and all(x not in keep for x in path[1:-1])
                }
                for s in set(labels) - keep
            ]
            for u in keep:
                for v in keep:
                    common = any(u in hits and v in hits for hits in reached)
                    assert (frozenset({u, v}) in view.bidirected_edges) == (u != v and common)
