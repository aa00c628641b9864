"""Graph core: parsing, ordering, reachability and d-separation."""

import sys
import threading
from collections import Counter
from itertools import chain, combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causal_reduce.graph as graph_module
from causal_reduce.graph import (
    CycleError,
    Dag,
    GraphError,
    GraphParseError,
    UnknownVertexError,
    ancestors,
    d_separated,
    descendants,
    format_graph,
    has_causal_path,
    parents,
    parse_graph,
    topo_sort,
)
from causal_reduce.reduction import reduce
from conftest import golden
from oracles import (
    _ancestors,
    causal_path_oracle,
    d_separated_moral,
    d_separated_oracle,
    random_dag,
)


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


class TestParse:
    def test_minimal(self):
        g = parse_graph("!treatment A\n!outcome Y\nA -> Y")
        assert g == Dag(["A", "Y"], [("A", "Y")], "A", "Y")

    def test_motivating_vertices_in_first_appearance_order(self):
        g = golden("motivating")
        assert g.vertices == ("A", "Y", "I1", "O1", "W4", "W2", "W3", "W1")
        assert len(g.edges) == 8

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            parse_graph("!treatment A\n!outcome B\nA -> B\nB -> A")

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("!treatment A\n!outcome Y\nA -> Y\nA -> ")
        assert err.value.line == 4

    def test_missing_treatment(self):
        with pytest.raises(GraphError):
            parse_graph("!outcome Y\nA -> Y")

    def test_undeclared_outcome(self):
        with pytest.raises(GraphError):
            parse_graph("!treatment A\n!outcome Z\nA -> Y")

    def test_comments_and_isolated_vertices(self):
        g = parse_graph("# top\n!treatment A\n!outcome Y\nA -> Y\nLonely\n")
        assert "Lonely" in g.vertices
        assert g.children("Lonely") == frozenset()

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph("!treatment A\n!outcome Y\nA -> Y\nA -> Y")

    @pytest.mark.parametrize(
        "body, error, message, line",
        [
            ("A -> ", GraphParseError, "malformed edge line 'A ->'", 3),
            ("-> B", GraphParseError, "malformed edge line '-> B'", 3),
            ("A -> B -> C", GraphParseError, "malformed edge line 'A -> B -> C'", 3),
            # the edge pattern splits at the first arrow it can
            ("A ->B->C", GraphParseError, "invalid label 'B->C'", 3),
            ("A->->B", GraphParseError, "invalid label 'A->'", 3),
            ("1A -> B", GraphParseError, "invalid label '1A'", 3),
            ("A -> Y\nA -> Y", GraphParseError, "duplicate edge A -> Y", 4),
            ("A -> Y\nB -> B", GraphParseError, "self-loop at 'B'", 4),
            ("A -> Y\n!treatment A", GraphParseError, "duplicate !treatment directive", 4),
            ("A -> Y\n!outcome", GraphParseError, "malformed directive '!outcome'", 4),
            ("A -> B\nB -> Y\nY -> A", CycleError, "graph contains a cycle", None),
        ],
    )
    def test_malformed_text_names_its_fault_and_line(self, body, error, message, line):
        with pytest.raises(GraphError) as err:
            parse_graph("!treatment A\n!outcome Y\n" + body)
        assert type(err.value) is error
        if line is None:
            assert str(err.value) == message and not hasattr(err.value, "line")
        else:
            assert str(err.value) == f"line {line}: {message}" and err.value.line == line

    @pytest.mark.parametrize(
        "text, message",
        [
            ("!outcome Y\nA -> Y", "treatment is missing or undeclared"),
            ("!treatment Q\n!outcome Y\nA -> Y", "treatment is missing or undeclared"),
            ("!treatment A\nA -> Y", "outcome is missing or undeclared"),
            ("!treatment A\n!outcome Z\nA -> Y", "outcome is missing or undeclared"),
        ],
    )
    def test_missing_or_undeclared_role(self, text, message):
        with pytest.raises(GraphError) as err:
            parse_graph(text)
        assert type(err.value) is GraphError and str(err.value) == message

    def test_format_round_trip(self, rng):
        graphs = [golden(name) for name in ("motivating", "zoo", "covariate_web")]
        for n in (5, 12, 40, 65, 90, 200):
            g = random_dag(rng, n, 2.5 / n)
            edges = list(g.edges)
            rng.shuffle(edges)
            vertices = [str(v) for v in rng.permutation(g.vertices)]
            graphs.append(Dag(vertices, edges, g.treatment, g.outcome))
        for g in graphs:
            back = parse_graph(format_graph(g))
            assert back == g
            assert back.vertices == g.vertices and back.edges == g.edges
            assert topo_sort(back) == topo_sort(g)
            assert back._masks == g._masks


class TestDagErrors:
    @pytest.mark.parametrize(
        "vertices, edges, treatment, outcome, error, message",
        [
            ("AAY", ["AY"], "A", "Y", GraphError, "duplicate vertex labels"),
            ("AY", ["AZ"], "A", "Y", GraphError, "edge (A, Z) references undeclared vertex"),
            ("AY", ["AY", "AA"], "A", "Y", GraphError, "self-loop at A"),
            ("AY", ["AY", "AY"], "A", "Y", GraphError, "duplicate edges"),
            ("AY", ["AY"], "Q", "Y", GraphError, "treatment 'Q' is not a declared vertex"),
            ("AY", ["AY"], "A", "Q", GraphError, "outcome 'Q' is not a declared vertex"),
            ("AY", ["AY"], "A", "A", GraphError, "treatment and outcome must differ"),
            ("ABY", ["AB", "BY", "YA"], "A", "Y", CycleError, "graph contains a cycle"),
        ],
    )
    def test_single_fault(self, vertices, edges, treatment, outcome, error, message):
        with pytest.raises(GraphError) as err:
            Dag(list(vertices), [tuple(e) for e in edges], treatment, outcome)
        assert type(err.value) is error and str(err.value) == message


class TestTopoSort:
    def test_chain(self):
        g = parse_graph("!treatment A\n!outcome C\nA -> B\nB -> C")
        assert topo_sort(g) == ("A", "B", "C")

    def test_motivating_reduced_order(self):
        order = topo_sort(golden("motivating_reduced"))
        pos = {v: i for i, v in enumerate(order)}
        assert pos["W2"] < pos["O1"] < pos["A"] < pos["Y"]
        assert pos["W3"] < pos["O1"]

    def test_parent_before_child_random(self, rng):
        for _ in range(30):
            g = random_dag(rng, 7, 0.5)
            pos = {v: i for i, v in enumerate(topo_sort(g))}
            for u, v in g.edges:
                assert pos[u] < pos[v]

    def test_deterministic_across_parses(self):
        text = format_graph(golden("covariate_web"))
        assert topo_sort(parse_graph(text)) == topo_sort(parse_graph(text))


class TestRelations:
    def test_ancestors_trivial(self):
        g = golden("trivial")
        assert ancestors(g, {"Y"}) == {"A", "Y"}

    def test_ancestors_motivating(self):
        assert ancestors(golden("motivating"), {"O1"}) == {"O1", "W4", "W2", "W3", "W1"}

    def test_descendants_zoo(self):
        assert descendants(golden("zoo"), {"A"}) == {
            "A",
            "M1",
            "M2",
            "M3",
            "Y",
            "N1",
        }

    def test_parents_children_not_reflexive(self):
        g = golden("motivating")
        assert parents(g, {"W4"}) == {"W2", "W3"}
        assert g.children("W4") == {"I1", "O1"}

    def test_unknown_label(self):
        with pytest.raises(GraphError):
            ancestors(golden("trivial"), {"Q"})

    @pytest.mark.parametrize("query", ["parents", "children", "parent_list", "topo_index"])
    def test_unknown_label_in_a_vertex_query(self, query):
        with pytest.raises(UnknownVertexError, match="unknown vertex 'Q'"):
            getattr(golden("trivial"), query)("Q")

    def test_reflexive_transitive_monotone(self, rng):
        for _ in range(20):
            g = random_dag(rng, 6, 0.4)
            vs = list(g.vertices)
            s = set(vs[:2])
            bigger = set(vs[:3])
            an = ancestors(g, s)
            assert s <= an
            assert ancestors(g, an) == an
            assert an <= ancestors(g, bigger)
            de = descendants(g, s)
            assert s <= de
            assert descendants(g, de) == de
            assert de <= descendants(g, bigger)


class TestDSeparation:
    def test_motivating_separations(self):
        g = golden("motivating")
        assert d_separated(g, {"O1"}, {"W2", "W3"}, {"W4"})
        assert d_separated(g, {"W4"}, {"O1"}, {"O1"})

    def test_empty_convention(self):
        g = golden("motivating")
        assert d_separated(g, set(), {"Y"}, set())
        assert d_separated(g, {"A"}, set(), {"W1"})

    def test_symmetry_random(self, rng):
        for _ in range(50):
            g = random_dag(rng, 6, 0.4)
            vs = list(g.vertices)
            rng.shuffle(vs)
            x, y, z = {vs[0]}, {vs[1]}, set(vs[2:4])
            assert d_separated(g, x, y, z) == d_separated(g, y, x, z)

    def test_overlap_rewrite(self, rng):
        for _ in range(50):
            g = random_dag(rng, 6, 0.4)
            vs = list(g.vertices)
            rng.shuffle(vs)
            x, y, z = {vs[0], vs[2]}, {vs[1], vs[3]}, {vs[2], vs[3]}
            assert d_separated(g, x, y, z) == d_separated(g, x - z, y - z, z)

    def test_oracle_all_partitions_small(self, rng):
        # exhaustive <=3-way partitions on graphs up to 5 vertices
        for _ in range(15):
            n = int(rng.integers(3, 6))
            g = random_dag(rng, n, 0.5)
            labels = g.vertices
            for assign in product(range(4), repeat=n):
                x = {labels[i] for i in range(n) if assign[i] == 0}
                y = {labels[i] for i in range(n) if assign[i] == 1}
                z = {labels[i] for i in range(n) if assign[i] == 2}
                if not x or not y:
                    continue
                assert d_separated(g, x, y, z) == d_separated_oracle(g, x, y, z)

    def test_oracle_pairs_seven_vertices(self, rng):
        for _ in range(10):
            g = random_dag(rng, 7, 0.35)
            labels = g.vertices
            for i, j in combinations(range(7), 2):
                rest = [labels[k] for k in range(7) if k not in (i, j)]
                for z in powerset(rest):
                    assert d_separated(
                        g, {labels[i]}, {labels[j]}, set(z)
                    ) == d_separated_oracle(g, {labels[i]}, {labels[j]}, set(z))


def _random_query(rng, vs, most_z):
    def pick(most):
        k = int(rng.integers(0, most + 1))
        return {vs[i] for i in rng.choice(len(vs), size=k, replace=False)}

    return pick(min(3, len(vs))), pick(min(3, len(vs))), pick(most_z)


class TestDSeparationPastOneWord:
    """Graphs of more than 64 vertices, whose masks span several words,
    checked against the moralization oracle."""

    def test_moral_oracle_matches_path_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 8))
            g = random_dag(rng, n, float(rng.uniform(0.2, 0.6)))
            vs = list(g.vertices)
            for _ in range(30):
                x, y, z = _random_query(rng, vs, n)
                assert d_separated_moral(g, x, y, z) == d_separated_oracle(g, x, y, z)

    def test_large_random_dags(self, rng):
        answers = Counter()
        for n in (65, 130, 200):
            g = random_dag(rng, n, 2.5 / n)
            vs = list(g.vertices)
            for _ in range(300):
                x, y, z = _random_query(rng, vs, n // 4)
                got = d_separated(g, x, y, z)
                assert got == d_separated_moral(g, x, y, z)
                answers[got] += 1
                assert ancestors(g, z) == _ancestors(g, z)
        assert answers[True] > 100 and answers[False] > 100

    def test_equal_graphs_keep_their_own_masks(self, rng):
        # equal under ==, vertices declared in opposite orders
        g1 = random_dag(rng, 90, 2.5 / 90)
        edges = list(g1.edges)
        rng.shuffle(edges)
        g2 = Dag(reversed(g1.vertices), edges, g1.treatment, g1.outcome)
        assert g1 == g2 and g1.vertices != g2.vertices
        vs = list(g1.vertices)
        for _ in range(200):
            x, y, z = _random_query(rng, vs, 20)
            want = d_separated_moral(g1, x, y, z)
            assert d_separated(g1, x, y, z) == want
            assert d_separated(g2, x, y, z) == want
            assert ancestors(g2, x | z) == ancestors(g1, x | z)

    def test_first_queries_from_many_threads_agree(self, rng):
        g = random_dag(rng, 150, 2.5 / 150)
        vs = list(g.vertices)
        queries = [_random_query(rng, vs, 30) for _ in range(100)]
        want = [d_separated_moral(g, *q) for q in queries]
        fresh = Dag(g.vertices, g.edges, g.treatment, g.outcome)
        results = [None] * 8

        def work(k):
            results[k] = [d_separated(fresh, *q) for q in queries]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(r == want for r in results)


class TestDSeparationUnknownLabels:
    @pytest.mark.parametrize(
        "x, y, z",
        [
            ({"Q"}, {"Y"}, set()),
            ({"A"}, {"Q"}, set()),
            ({"A"}, {"Y"}, {"Q"}),
            # an empty side after the rewrite
            ({"Q"}, set(), set()),
            (set(), {"Q"}, set()),
            (set(), {"Y"}, {"Q"}),
            ({"W1"}, {"Y", "Q"}, {"W1"}),
            ({"A"}, {"Y"}, {"A", "Q"}),
            # overlapping sides
            ({"A", "Q"}, {"A"}, set()),
            ({"A"}, {"A"}, {"Q"}),
        ],
    )
    def test_raises_for_any_side(self, x, y, z):
        with pytest.raises(UnknownVertexError):
            d_separated(golden("motivating"), x, y, z)


class TestMaskCost:
    def test_reduce_builds_masks_once_and_d_separated_walks_no_sets(self, monkeypatch, rng):
        # each vertex takes up to three parents among the 15 before it, so
        # most of the graph is ancestral to the outcome
        vs = [f"V{i}" for i in range(300)]
        edges = {("V150", "V299")}
        for i in range(1, 300):
            for j in rng.choice(range(max(0, i - 15), i), size=min(i, 3), replace=False):
                if rng.random() < 0.7:
                    edges.add((vs[j], vs[i]))
        g = Dag(vs, sorted(edges), "V150", "V299")
        masks = vars(g)["_masks"]  # built by the constructor
        # the masks are built in the constructor's topological sort, so one
        # sort per Dag constructed means no mask build outside a constructor
        sorts, dags = [], []
        kahn, init = graph_module._kahn, Dag.__init__

        def counted_kahn(*args):
            sorts.append(args[0])
            return kahn(*args)

        def counted_init(self, *args):
            dags.append(self)
            init(self, *args)

        monkeypatch.setattr(graph_module, "_kahn", counted_kahn)
        monkeypatch.setattr(Dag, "__init__", counted_init)
        callers = []
        for name in ("ancestors", "_reach"):

            def recorded(*args, _fn=getattr(graph_module, name), **kw):
                callers.append(sys._getframe(1).f_code.co_name)
                return _fn(*args, **kw)

            monkeypatch.setattr(graph_module, name, recorded)
        report = reduce(g)
        assert report.verdicts and report.removed
        assert g._masks is masks
        assert dags and len(sorts) == len(dags)
        assert callers and "d_separated" not in callers


class TestCausalPath:
    def test_direct_edge(self):
        assert has_causal_path(golden("trivial"), "A", "Y")

    def test_indirect_blocked_through_treatment(self):
        g = golden("motivating")
        assert not has_causal_path(g, "I1", "Y", avoiding={"A"})
        assert has_causal_path(g, "I1", "Y")

    def test_oracle_random(self, rng):
        for _ in range(50):
            g = random_dag(rng, 7, 0.4)
            # endpoints may coincide or sit in ``avoid``: both are exempt
            vs = list(g.vertices)
            frm, to = (str(v) for v in rng.choice(vs, size=2))
            avoid = {str(v) for v in rng.choice(vs, size=3, replace=False)}
            assert has_causal_path(g, frm, to, avoid) == causal_path_oracle(
                g, frm, to, avoid
            )


class TestEquality:
    def test_order_insensitive(self):
        g1 = Dag(["A", "Y", "B"], [("A", "Y"), ("B", "Y")], "A", "Y")
        g2 = Dag(["B", "A", "Y"], [("B", "Y"), ("A", "Y")], "A", "Y")
        assert g1 == g2
        assert hash(g1) == hash(g2)

    def test_treatment_matters(self):
        g1 = Dag(["A", "Y", "B"], [("A", "Y"), ("B", "Y")], "A", "Y")
        g2 = Dag(["A", "Y", "B"], [("A", "Y"), ("B", "Y")], "B", "Y")
        assert g1 != g2


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_dsep_convention_properties(n, seed):
    rng = np.random.default_rng(seed)
    g = random_dag(rng, n, 0.4)
    vs = list(g.vertices)
    z = set(vs[: n // 2])
    assert d_separated(g, set(), set(vs), z)
    # reflexive overlap: x and y sharing a non-conditioned vertex connect
    free = [v for v in vs if v not in z]
    if free:
        assert not d_separated(g, {free[0]}, {free[0]}, z)
