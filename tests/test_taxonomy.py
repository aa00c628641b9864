"""Vertex classification and minimal d-separating subsets."""

import pytest

from causal_reduce import taxonomy
from causal_reduce.graph import GraphError, ancestors, d_separated, descendants, parse_graph
from causal_reduce.taxonomy import (
    AssumptionViolation,
    classify,
    minimal_dseparator_within,
)
from conftest import golden
from oracles import causal_path_oracle, minimal_separator_oracle, random_dag


class TestClassifyGolden:
    def test_zoo_full_taxonomy(self):
        tax = classify(golden("zoo"))
        assert tax.n == {"N1"}
        assert tax.i == {"I1", "I2"}
        assert tax.w == {"W1", "O1", "O2", "O3", "O4"}
        assert tax.m == {"M1", "M2", "M3", "Y"}
        assert tax.o == {"O1", "O2", "O3", "O4"}
        assert tax.o_min == {"O1", "O2", "O3"}

    def test_trivial(self):
        tax = classify(golden("trivial"))
        assert tax.n == tax.i == tax.w == tax.o == tax.o_min == frozenset()
        assert tax.m == {"Y"}

    def test_mediator_family_o_min_values(self):
        t1 = classify(golden("mediator_plain"))
        assert t1.o == {"O"} and t1.o_min == frozenset()
        t2 = classify(golden("mediator_confounded"))
        assert t2.o == {"O"} and t2.o_min == {"O"}

    def test_motivating(self):
        tax = classify(golden("motivating"))
        assert tax.i == {"I1"}
        assert tax.o == {"O1"}
        assert tax.w == {"O1", "W1", "W2", "W3", "W4"}

    def test_assumption_violation(self):
        g = parse_graph("!treatment A\n!outcome Y\nY -> A")
        with pytest.raises(AssumptionViolation):
            classify(g)


class TestClassifyProperties:
    def test_partition_and_ancestry_identities_random(self, rng):
        checked = 0
        while checked < 40:
            g = random_dag(rng, int(rng.integers(3, 9)), 0.4, ensure_assumption=True)
            tax = classify(g)
            parts = [frozenset({g.treatment}), tax.n, tax.i, tax.w, tax.m]
            union = frozenset().union(*parts)
            assert union == frozenset(g.vertices)
            assert sum(len(p) for p in parts) == len(g.vertices)
            assert g.outcome in tax.m
            assert tax.o_min <= tax.o <= tax.w
            # baseline covariates are exactly the ancestors of the adjustment set
            if tax.o:
                assert tax.w == ancestors(g, tax.o)
            else:
                assert tax.w == frozenset()
            for wj in tax.w:
                assert descendants(g, {wj}) & tax.o
            # I: the ancestors of Y outside De(A) whose every causal path to Y
            # passes through A
            a, y = g.treatment, g.outcome
            outside = ancestors(g, {y}) - descendants(g, {a})
            assert tax.i == {v for v in outside if not causal_path_oracle(g, v, y, {a})}
            assert d_separated(g, {g.treatment}, tax.o - tax.o_min, tax.o_min)
            checked += 1

    def test_relabeling_invariance(self, rng):
        g = golden("zoo")
        mapping = {v: f"X{i}" for i, v in enumerate(g.vertices)}
        perm = list(g.vertices)
        rng.shuffle(perm)
        relabeled = parse_graph(
            "!treatment {}\n!outcome {}\n".format(
                mapping[g.treatment], mapping[g.outcome]
            )
            + "".join(f"{mapping[u]} -> {mapping[v]}\n" for u, v in g.edges)
        )
        tax = classify(g)
        tax2 = classify(relabeled)
        assert tax2.o_min == {mapping[v] for v in tax.o_min}
        assert tax2.o == {mapping[v] for v in tax.o}


class TestMinimalSeparator:
    def test_mediator_confounded(self):
        g = golden("mediator_confounded")
        assert minimal_dseparator_within(g, {"A"}, set(), {"O"}) == {"O"}

    def test_already_separated_by_empty(self):
        g = golden("mediator_plain")
        assert minimal_dseparator_within(g, {"A"}, set(), {"O"}) == frozenset()

    def test_precondition(self):
        g = golden("trivial")
        with pytest.raises(Exception):
            minimal_dseparator_within(g, {"A"}, {"Y"}, set())

    def test_matches_subset_enumeration(self, rng):
        # x, y and c are drawn independently, so c may overlap both sides
        kinds = {"y empty": 0, "y given": 0, "c meets x": 0, "c meets y": 0}
        checked = 0
        while checked < 150:
            n = int(rng.integers(3, 8))
            g = random_dag(rng, n, 0.4)
            labels = list(g.vertices)

            def draw(lo: int, hi: int) -> set[str]:
                k = int(rng.integers(lo, hi + 1))
                return set(rng.choice(labels, size=k, replace=False).tolist())

            x, y, c = draw(1, 2), draw(0, 2), draw(0, n)
            if not d_separated(g, x, y, c):
                with pytest.raises(GraphError, match="precondition"):
                    minimal_dseparator_within(g, x, y, c)
                continue
            got = minimal_dseparator_within(g, x, y, c)
            assert got == minimal_separator_oracle(g, x, y, c)
            kinds["y given" if y else "y empty"] += 1
            kinds["c meets x"] += bool(c & x)
            kinds["c meets y"] += bool(c & y)
            checked += 1
        assert min(kinds.values()) >= 10, kinds

    def test_classify_tests_each_member_of_o_once(self, goldens, monkeypatch):
        # one test of the precondition, then one per member of O
        calls = []

        def counting(*args):
            calls.append(args)
            return d_separated(*args)

        monkeypatch.setattr(taxonomy, "d_separated", counting)
        for name, g in goldens.items():
            calls.clear()
            try:
                tax = classify(g)
            except AssumptionViolation:
                continue
            assert len(calls) == 1 + len(tax.o), name
