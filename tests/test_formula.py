"""Symbolic formula derivation, rendering and the generic evaluator."""

import numpy as np
import pytest

from causal_reduce.bn import PositivityError, random_law
from causal_reduce.formula import Factor, GFormula, derive_gformula, evaluate, render
from causal_reduce.functionals import g_functional_exact
from causal_reduce.reduction import reduce
from causal_reduce.taxonomy import AssumptionViolation
from causal_reduce.criteria import informative_set
from causal_reduce.graph import GraphError, parse_graph
from conftest import LAW_SUITE, golden, positivity_hole_law


# factors and each parent list in topological order; "level" and
# "substitute_a" are written from the factors, as no field holds them
MOTIVATING_REDUCED_JSON = """\
{
  "level": "a",
  "outcome": "Y",
  "sum_vars": [
    "Y",
    "O1",
    "W2",
    "W3"
  ],
  "factors": [
    {
      "child": "W2",
      "parents": [],
      "substitute_a": false
    },
    {
      "child": "W3",
      "parents": [],
      "substitute_a": false
    },
    {
      "child": "O1",
      "parents": [
        "W2",
        "W3"
      ],
      "substitute_a": false
    },
    {
      "child": "Y",
      "parents": [
        "O1",
        "A"
      ],
      "substitute_a": true
    }
  ]
}"""


class TestDerive:
    def test_trivial(self):
        f = derive_gformula(golden("trivial"))
        assert f.sum_vars == ("Y",)
        assert len(f.factors) == 1
        assert f.factors[0].child == "Y"
        assert "A" in f.factors[0].parents

    def test_motivating_reduced_structure(self):
        f = derive_gformula(golden("motivating_reduced"))
        assert set(f.sum_vars) == {"Y", "O1", "W2", "W3"}
        by_child = {fa.child: fa for fa in f.factors}
        assert set(by_child["Y"].parents) == {"A", "O1"}
        assert "A" in by_child["Y"].parents
        assert set(by_child["O1"].parents) == {"W2", "W3"}
        assert "A" not in by_child["O1"].parents

    def test_one_factor_per_sum_var(self):
        for name in ("motivating", "mediator_chain", "covariate_web"):
            f = derive_gformula(golden(name))
            assert {fa.child for fa in f.factors} == set(f.sum_vars)

    def test_assumption_checked(self):
        g = parse_graph("!treatment A\n!outcome Y\nY -> A")
        with pytest.raises(AssumptionViolation):
            derive_gformula(g)


class TestRender:
    def test_trivial_text(self):
        f = derive_gformula(golden("trivial"))
        assert render(f, "text") == "sum_y y * p(y|a)"

    def test_motivating_reduced_text_golden(self):
        f = derive_gformula(golden("motivating_reduced"))
        assert (
            render(f, "text")
            == "sum_{y,o1,w2,w3} y * p(y|a,o1) * p(o1|w2,w3) * p(w2) * p(w3)"
        )

    def test_motivating_reduced_latex_golden(self):
        f = derive_gformula(golden("motivating_reduced"))
        assert render(f, "latex") == (
            "\\sum_{y, o_1, w_2, w_3} y \\, p(y \\mid a, o_1) "
            "\\, p(o_1 \\mid w_2, w_3) \\, p(w_2) \\, p(w_3)"
        )

    def test_underscore_labels_latex_golden(self):
        # an underscore is escaped; a trailing number is still a subscript,
        # and a summation subscript wider than one character is braced
        g = parse_graph(
            "!treatment A\n!outcome Y\nW_1 -> A\nW_1 -> Y\nmy_var -> Y\n"
            "x_12 -> my_var\nA -> Y\n"
        )
        assert render(derive_gformula(g), "latex") == (
            "\\sum_{y, w\\__1, my\\_var, x\\__{12}} y \\, p(y \\mid a, w\\__1, my\\_var) "
            "\\, p(w\\__1) \\, p(my\\_var \\mid x\\__{12}) \\, p(x\\__{12})"
        )
        assert render(derive_gformula(g), "text") == (
            "sum_{y,w_1,my_var,x_12} y * p(y|a,w_1,my_var) * p(w_1) * p(my_var|x_12) * p(x_12)"
        )
        single = parse_graph("!treatment A\n!outcome out_1\nA -> out_1\n")
        assert render(derive_gformula(single), "latex") == (
            "\\sum_{out\\__1} out\\__1 \\, p(out\\__1 \\mid a)"
        )

    def test_mediator_chain_reduced_text_golden(self):
        f = derive_gformula(golden("mediator_chain_reduced"))
        assert (
            render(f, "text")
            == "sum_{y,m1,o1,o2} y * p(y|m1) * p(m1|a,o1,o2) * p(o1) * p(o2)"
        )

    def test_motivating_reduced_json_golden(self):
        f = derive_gformula(golden("motivating_reduced"))
        assert render(f, "json") == MOTIVATING_REDUCED_JSON

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(derive_gformula(golden("trivial")), "html")


class TestEvaluate:
    def test_matches_exact_functional(self):
        for name in LAW_SUITE:
            g = golden(name)
            f = derive_gformula(g)
            gen = np.random.default_rng(hash(name) % 2**31)
            cards = {v: int(gen.integers(2, 4)) for v in g.vertices}
            bn = random_law(g, cards, seed=7, epsilon=0.02)
            assert abs(evaluate(f, bn, 1) - g_functional_exact(bn, 1)) <= 1e-12

    def test_reduced_formula_against_original_law(self):
        for name in ("motivating", "mediator_chain"):
            g = golden(name)
            red = reduce(g).output
            f = derive_gformula(red)
            assert set(f.sum_vars) | {g.treatment} <= informative_set(g)
            gen = np.random.default_rng(5)
            cards = {v: int(gen.integers(2, 4)) for v in g.vertices}
            bn = random_law(g, cards, seed=11, epsilon=0.02)
            assert abs(evaluate(f, bn, 1) - g_functional_exact(bn, 1)) <= 1e-10

    def test_positivity_hole_raises(self):
        # p(y | a, o) at a = 1 is undefined at o = 0, which has weight P(O=0)
        # > 0; the evaluator raises instead of reading it as 0
        bn = positivity_hole_law()
        for g in (bn.graph, reduce(bn.graph).output):
            with pytest.raises(PositivityError):
                evaluate(derive_gformula(g), bn, 1)
        assert evaluate(derive_gformula(bn.graph), bn, 0) == pytest.approx(
            g_functional_exact(bn, 0), abs=1e-12
        )

    @pytest.mark.parametrize(
        "formula, message",
        [
            (
                ("Y", ("Y",), (Factor("Y", ("A",)), Factor("O", ()))),
                "one factor per summation variable",
            ),
            (("Y", ("Y",), (Factor("Y", ("A", "O")),)), "more than one non-summed label"),
            (("Y", (), ()), "outcome 'Y' must be a summation variable"),
            (("Y", ("Y",), ()), "one factor per summation variable"),
            (("Y", ("Y",), (Factor("Y", ("A",)), Factor("Y", ()))), "two factors for one child"),
        ],
    )
    def test_malformed_formula_refused(self, formula, message):
        # refused where it is built, so neither evaluate nor render sees it
        with pytest.raises(GraphError, match=message):
            GFormula(*formula)
