"""Exact functionals, the influence function, and plugin estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_reduce.bn import (
    Dataset,
    DiscreteBn,
    EnumerationLimitError,
    PositivityError,
    ZeroConditioningEvent,
    _broadcast_factor,
    marginal,
    random_law,
    sample,
)
from causal_reduce.formula import derive_gformula, evaluate
from causal_reduce.functionals import (
    EifContext,
    EmptyCellError,
    adjustment_exact,
    adjustment_if_variance,
    eif_exact,
    eif_variance,
    eif_variance_for_graph,
    front_door_exact,
    g_functional_exact,
    g_functional_for_graph,
    plugin_adjustment,
    plugin_g,
)
from causal_reduce.graph import Dag, GraphError, parse_graph
from causal_reduce.reduction import reduce
from causal_reduce.taxonomy import classify
from conftest import LAW_SUITE, golden, positivity_hole_law


def coin_pair():
    g = golden("trivial")
    return DiscreteBn(
        g,
        {"A": 2, "Y": 2},
        {"A": np.array([0.5, 0.5]), "Y": np.array([[0.5, 0.5], [0.5, 0.5]])},
    )


def biased_chain(py1=0.7):
    g = golden("trivial")
    return DiscreteBn(
        g,
        {"A": 2, "Y": 2},
        {"A": np.array([0.5, 0.5]), "Y": np.array([[0.6, 0.4], [1 - py1, py1]])},
    )


def law_on(name, seed, rng=None, max_card=3, epsilon=0.02):
    g = golden(name)
    gen = np.random.default_rng(seed)
    cards = {v: int(gen.integers(2, max_card + 1)) for v in g.vertices}
    return random_law(g, cards, seed=seed, epsilon=epsilon)


class TestGFunctional:
    def test_chain(self):
        assert g_functional_exact(biased_chain(0.7), 1) == pytest.approx(0.7)

    def test_no_confounding_reduces_to_mean(self):
        bn = coin_pair()
        assert g_functional_exact(bn, 0) == pytest.approx(0.5)
        assert g_functional_exact(bn, 1) == pytest.approx(0.5)

    def test_adjustment_identity_on_motivating(self):
        for seed in range(20):
            bn = law_on("motivating", seed)
            psi = g_functional_exact(bn, 1)
            assert abs(psi - adjustment_exact(bn, {"O1"}, 1)) <= 1e-10
            # any valid back-door set gives the same answer
            assert abs(psi - adjustment_exact(bn, {"I1"}, 1)) <= 1e-10
            assert abs(psi - adjustment_exact(bn, {"W4"}, 1)) <= 1e-10
            assert abs(psi - adjustment_exact(bn, {"I1", "W4"}, 1)) <= 1e-10

    def test_positivity_error(self):
        g = golden("trivial")
        bn = DiscreteBn(
            g,
            {"A": 2, "Y": 2},
            {"A": np.array([1.0, 0.0]), "Y": np.array([[0.5, 0.5], [0.5, 0.5]])},
        )
        with pytest.raises(PositivityError):
            g_functional_exact(bn, 1)

    def test_positivity_hole_raises_on_every_g_route(self):
        bn = positivity_hole_law()
        for g in (bn.graph, reduce(bn.graph).output):
            with pytest.raises(PositivityError):
                g_functional_for_graph(bn, g, 1)
        with pytest.raises(PositivityError):
            g_functional_exact(bn, 1)
        assert g_functional_for_graph(bn, bn.graph, 0) == pytest.approx(
            g_functional_exact(bn, 0), abs=1e-12
        )

    def test_needed_null_event_without_treatment_raises(self):
        # M copies A, and A=1 never occurs with O=0: p(y | m=1, o=0) is
        # needed at level 1 but conditions on an event of probability zero
        g = parse_graph("!treatment A\n!outcome Y\nO -> A\nA -> M\nM -> Y\nO -> Y")
        bn = DiscreteBn(
            g,
            {v: 2 for v in g.vertices},
            {
                "O": np.array([0.5, 0.5]),
                "A": np.array([[1.0, 0.0], [0.3, 0.7]]),
                "M": np.array([[1.0, 0.0], [0.0, 1.0]]),
                "Y": np.array([[[0.9, 0.1], [0.4, 0.6]], [[0.7, 0.3], [0.2, 0.8]]]),
            },
        )
        with pytest.raises(ZeroConditioningEvent):
            g_functional_for_graph(bn, g, 1)

    def test_undefined_cells_without_weight_are_not_needed(self):
        # O never takes state 2, so p(y | a, o=2) is undefined but unused
        g = golden("two_adjusters")
        bn = random_law(g, {"A": 2, "Y": 2, "O1": 3, "O2": 2}, seed=4, epsilon=0.02)
        bn = bn.with_cpt("O1", np.array([0.4, 0.6, 0.0]))
        want = g_functional_exact(bn, 1)
        assert abs(g_functional_for_graph(bn, g, 1) - want) <= 1e-12
        assert abs(adjustment_exact(bn, {"O1", "O2"}, 1) - want) <= 1e-12

    def test_for_graph_matches_reduced_marginal(self):
        g = golden("motivating")
        red = reduce(g).output
        for seed in range(10):
            bn = law_on("motivating", seed)
            assert abs(
                g_functional_exact(bn, 1) - g_functional_for_graph(bn, red, 1)
            ) <= 1e-10


class TestAdjustment:
    def test_empty_set_is_conditional_mean(self):
        assert adjustment_exact(biased_chain(0.7), set(), 1) == pytest.approx(0.7)

    def test_zero_conditioning(self):
        g = parse_graph("!treatment A\n!outcome Y\nL -> A\nA -> Y\nL -> Y")
        cpts = {
            "L": np.array([0.5, 0.5]),
            "A": np.array([[1.0, 0.0], [0.5, 0.5]]),
            "Y": np.array([[[0.5, 0.5]] * 2] * 2),
        }
        bn = DiscreteBn(g, {"L": 2, "A": 2, "Y": 2}, cpts)
        with pytest.raises(ZeroConditioningEvent):
            adjustment_exact(bn, {"L"}, 1)

    @pytest.mark.parametrize("L", [{"A"}, {"Y"}, {"M"}, {"O", "M"}])
    def test_rejects_descendants_of_the_treatment(self, L):
        bn = law_on("front_door", 4)
        ds = sample(bn, 200, seed=1)
        names = ", ".join(v for v in bn.graph.vertices if v in L - {"O"})
        for route in (
            lambda: adjustment_exact(bn, L, 1),
            lambda: adjustment_if_variance(bn, L, 1),
            lambda: plugin_adjustment(ds, bn.graph, L, 1),
        ):
            with pytest.raises(GraphError, match=f"adjustment set may not hold {names}:"):
                route()


class TestFrontDoor:
    def test_agrees_with_g_formula_on_markov_laws(self):
        for seed in range(20):
            bn = law_on("front_door", seed)
            assert abs(
                front_door_exact(bn, {"M"}, 1) - g_functional_exact(bn, 1)
            ) <= 1e-10
            assert abs(
                adjustment_exact(bn, {"O"}, 1) - g_functional_exact(bn, 1)
            ) <= 1e-10

    def test_degenerate_copy_mediator(self):
        g = parse_graph("!treatment A\n!outcome Y\nA -> M\nM -> Y")
        bn = DiscreteBn(
            g,
            {"A": 2, "M": 2, "Y": 2},
            {
                "A": np.array([0.4, 0.6]),
                "M": np.array([[1.0, 0.0], [0.0, 1.0]]),
                "Y": np.array([[0.8, 0.2], [0.3, 0.7]]),
            },
        )
        assert front_door_exact(bn, {"M"}, 1) == pytest.approx(0.7)

    def test_witness_gap_off_model(self):
        # law Markov to the graph with a direct treatment-outcome edge is
        # generally not Markov to the pure front-door graph
        gw = parse_graph(
            "!treatment A\n!outcome Y\nA -> M\nM -> Y\nA -> Y\nO -> A\nO -> Y"
        )
        bn = random_law(gw, {v: 2 for v in gw.vertices}, seed=0, epsilon=0.05)
        gap = abs(front_door_exact(bn, {"M"}, 1) - adjustment_exact(bn, {"O"}, 1))
        assert gap > 0.01

    @pytest.mark.parametrize("mediators", [{"O"}, {"A"}, {"Y"}, {"M", "O"}])
    def test_rejects_non_mediators(self, mediators):
        bn = law_on("front_door", 4)
        names = ", ".join(v for v in bn.graph.vertices if v in mediators - {"M"})
        with pytest.raises(GraphError, match=f"mediator set may not hold {names}:"):
            front_door_exact(bn, mediators, 1)

    def test_rejects_empty_mediator_set(self):
        bn = law_on("front_door", 4)
        with pytest.raises(GraphError, match="mediator set is empty"):
            front_door_exact(bn, [], 1)

    def test_null_treatment_names_the_treatment(self):
        g = parse_graph("!treatment A\n!outcome Y\nA -> M\nM -> Y")
        bn = random_law(g, {v: 2 for v in g.vertices}, seed=1, epsilon=0.05)
        bn = bn.with_cpt("A", np.array([1.0, 0.0]))
        with pytest.raises(ZeroConditioningEvent) as err:
            front_door_exact(bn, {"M"}, 1)
        assert err.value.cell == ("A", ())
        assert front_door_exact(bn, {"M"}, 0) == pytest.approx(g_functional_exact(bn, 0))


class TestEif:
    def test_trivial_point_value(self):
        bn = coin_pair()
        assert eif_exact(bn, 1, (1, 1)) == pytest.approx(1.0)
        assert eif_exact(bn, 1, (0, 1)) == pytest.approx(0.0)
        assert eif_variance(bn, 1) == pytest.approx(0.5)

    def test_mean_zero_across_laws(self):
        for name in ("motivating", "mediator_chain", "mediator_plain"):
            for seed in range(10):
                bn = law_on(name, seed)
                ctx = EifContext.build(bn, 1)
                assert abs(float((ctx.joint * ctx.values).sum())) <= 1e-10

    def test_variance_matches_reduced_graph(self):
        for name in ("motivating", "mediator_chain", "covariate_web"):
            g = golden(name)
            red = reduce(g).output
            for seed in range(5):
                gen = np.random.default_rng(seed)
                cards = {v: int(gen.integers(2, 3)) for v in g.vertices}
                bn = random_law(g, cards, seed=seed, epsilon=0.02)
                v_full = eif_variance(bn, 1)
                v_red = eif_variance_for_graph(bn, red, 1)
                assert abs(v_full - v_red) <= 1e-8

    def test_constant_in_uninformative_coordinates(self):
        from causal_reduce.criteria import informative_set

        g = golden("motivating")
        vstar = informative_set(g)
        for seed in range(5):
            bn = law_on("motivating", seed)
            ctx = EifContext.build(bn, 1)
            for i, v in enumerate(g.vertices):
                if v not in vstar:
                    assert float(np.ptp(ctx.values, axis=i).max()) <= 1e-9

    def test_pathwise_derivative(self):
        g = golden("motivating")
        rng = np.random.default_rng(99)
        for _ in range(5):
            cards = {v: int(rng.integers(2, 4)) for v in g.vertices}
            bn = random_law(g, cards, seed=int(rng.integers(10**6)), epsilon=0.02)
            v = g.vertices[int(rng.integers(len(g.vertices)))]
            shape = bn.cpts[v].shape
            row = tuple(int(rng.integers(s)) for s in shape[:-1])
            q = rng.dirichlet(np.ones(shape[-1]))
            p_row = bn.cpts[v][row]

            def psi_at(t):
                table = bn.cpts[v].copy()
                table[row] = (1 - t) * p_row + t * q
                return g_functional_exact(bn.with_cpt(v, table), 1)

            def central(h):
                return (psi_at(h) - psi_at(-h)) / (2 * h)

            fd = (100 * central(1e-5) - central(1e-4)) / 99
            ctx = EifContext.build(bn, 1)
            score_fac = np.zeros(shape)
            score_fac[row] = (q - p_row) / p_row
            score = _broadcast_factor(
                g.vertices, bn.cards, list(bn.parent_order(v)) + [v], score_fac
            )
            want = float((ctx.joint * ctx.values * score).sum())
            assert abs(fd - want) <= 1e-6 * max(1.0, abs(fd), abs(want))

    def test_matches_nested_loop_oracle(self):
        # fully independent composition: loop-based conditional expectations,
        # no array broadcasting anywhere
        from oracles import eif_loop, g_functional_loop

        rng = np.random.default_rng(12)
        for name in ("mediator_confounded", "front_door", "two_adjusters"):
            g = golden(name)
            bn = law_on(name, 5)
            assert g_functional_exact(bn, 1) == pytest.approx(
                g_functional_loop(bn, 1), abs=1e-12
            )
            ctx = EifContext.build(bn, 1)
            for _ in range(4):
                point = {
                    v: int(rng.integers(bn.cards[v])) for v in g.vertices
                }
                want = eif_loop(bn, 1, point)
                got = ctx.evaluate([point[v] for v in g.vertices])
                assert got == pytest.approx(want, abs=1e-10)

    def test_bound_below_adjustment_variance(self):
        from causal_reduce.simulate import SimConfig, build_benchmark_dgp

        bn = build_benchmark_dgp(SimConfig("a", 5, 50, 100, 1, 0))
        bound = eif_variance(bn, 1)
        adj = adjustment_if_variance(bn, {"O1"}, 1)
        assert bound <= adj + 1e-10
        assert adj - bound > 0.01
        for seed in range(10):
            bn2 = law_on("motivating", seed)
            assert eif_variance(bn2, 1) <= adjustment_if_variance(bn2, {"O1"}, 1) + 1e-10

    def test_adjustment_variance_names_the_null_cell(self):
        # A = 1 never occurs with L = 0
        g = parse_graph("!treatment A\n!outcome Y\nL -> A\nA -> Y\nL -> Y")
        bn = random_law(g, {v: 2 for v in g.vertices}, seed=2, epsilon=0.05)
        bn = bn.with_cpt("A", np.array([[1.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(ZeroConditioningEvent) as err:
            adjustment_if_variance(bn, {"L"}, 1)
        assert err.value.cell == ("L", (0,))
        bn = bn.with_cpt("A", np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ZeroConditioningEvent) as err:
            adjustment_if_variance(bn, set(), 1)
        assert err.value.cell == ("A", ())


def exact_count_dataset(bn):
    """All configurations replicated proportionally to an all-rational law."""
    from causal_reduce.bn import joint_table

    table = joint_table(bn)
    denom = 2400
    counts = np.round(table * denom).astype(int)
    assert abs(counts.sum() - denom) <= 0, "law must have rational cells"
    rows = []
    for idx in np.ndindex(table.shape):
        rows.extend([list(idx)] * int(counts[idx]))
    return Dataset(tuple(bn.graph.vertices), np.array(rows), dict(bn.cards))


def rational_front_door_law():
    g = golden("front_door")
    return DiscreteBn(
        g,
        {v: 2 for v in g.vertices},
        {
            "O": np.array([0.5, 0.5]),
            "A": np.array([[0.75, 0.25], [0.25, 0.75]]),
            "M": np.array([[0.8, 0.2], [0.4, 0.6]]),
            "Y": np.array([[[0.9, 0.1], [0.5, 0.5]], [[0.6, 0.4], [0.2, 0.8]]]),
        },
    )


class TestPlugins:
    def test_all_ones_dataset(self):
        g = golden("trivial")
        rows = np.array([[0, 1], [1, 1], [1, 1], [0, 1]])
        ds = Dataset(("A", "Y"), rows, {"A": 2, "Y": 2})
        assert plugin_g(ds, g, 1).value == pytest.approx(1.0)

    def test_exact_counts_match_exact_functional(self):
        bn = rational_front_door_law()
        ds = exact_count_dataset(bn)
        assert plugin_g(ds, bn.graph, 1).value == pytest.approx(
            g_functional_exact(bn, 1), abs=1e-10
        )
        assert plugin_adjustment(ds, bn.graph, {"O"}, 1).value == pytest.approx(
            adjustment_exact(bn, {"O"}, 1), abs=1e-10
        )

    def test_adjustment_empty_set_is_treated_mean(self):
        rows = np.array([[1, 1], [1, 0], [0, 1], [1, 1]])
        ds = Dataset(("A", "Y"), rows, {"A": 2, "Y": 2})
        got = plugin_adjustment(ds, golden("trivial"), set(), 1)
        assert got.value == pytest.approx(2 / 3)

    def test_empty_cell_error_lists_cells(self):
        g = golden("trivial")
        rows = np.array([[0, 0], [0, 1]])
        ds = Dataset(("A", "Y"), rows, {"A": 2, "Y": 2})
        with pytest.raises(EmptyCellError):
            plugin_g(ds, g, 1)
        with pytest.raises(EmptyCellError):
            plugin_adjustment(ds, g, set(), 1)

    def test_empty_cell_names_the_cell(self):
        # A = 1 is seen only with O = 0, so both estimators need the
        # unobserved conditioning cell O = 1, A = 1
        g = parse_graph("!treatment A\n!outcome Y\nO -> A\nO -> Y\nA -> Y")
        rows = np.array([[0, 1, 1], [0, 0, 0], [1, 0, 1], [1, 0, 0]])
        ds = Dataset(("O", "A", "Y"), rows, {"O": 2, "A": 2, "Y": 2})
        with pytest.raises(EmptyCellError) as err:
            plugin_g(ds, g, 1)
        assert err.value.cells == [("Y", (1,))]
        with pytest.raises(EmptyCellError) as err:
            plugin_adjustment(ds, g, {"O"}, 1)
        assert err.value.cells == [("O", (1,))]

    def test_laplace_opt_in(self):
        g = golden("trivial")
        rows = np.array([[0, 0], [0, 1]])
        ds = Dataset(("A", "Y"), rows, {"A": 2, "Y": 2})
        # the unobserved row A = 1 reads (0 + 1) / (0 + 2)
        report = plugin_g(ds, g, 1, laplace=1.0)
        assert report.value == 0.5

    def test_plugin_consistency(self):
        bn = rational_front_door_law()
        truth = g_functional_exact(bn, 1)
        ds = sample(bn, 200_000, seed=17)
        est = plugin_g(ds, bn.graph, 1).value
        assert abs(est - truth) < 0.01

    def test_extra_columns_ignored(self):
        # a dataset may carry more columns than the estimating graph uses
        bn = rational_front_door_law()
        ds = sample(bn, 5000, seed=2)
        red = parse_graph("!treatment A\n!outcome Y\nA -> Y\nO -> A\nO -> Y\nM\n")
        sub = parse_graph("!treatment A\n!outcome Y\nA -> Y\nO -> A\nO -> Y")
        assert plugin_g(ds, sub, 1).value == pytest.approx(
            plugin_g(ds, red, 1).value
        )


# -- every exact route against every other ------------------------------------

def _outcome(call):
    try:
        return call()
    except (PositivityError, ZeroConditioningEvent) as exc:
        return exc


def _cell_vertices(cell, graph, g_formula):
    """The vertices whose states a null-event error's ``cell`` holds.  A
    g-formula cell names a child and holds the states of its parents other
    than the treatment; any other cell names its conditioning vertices,
    comma-joined, or the treatment when it conditions on nothing."""
    name, states = cell
    assert name, cell
    if g_formula:
        vs = [p for p in graph.parent_list(name) if p != graph.treatment]
    else:
        vs = name.split(",") if states else []
        assert vs or name == graph.treatment, cell
    assert len(states) == len(vs), cell
    return vs


@given(
    st.sampled_from(LAW_SUITE),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=2**27 - 1),
)
@settings(max_examples=40, deadline=None)
def test_exact_routes_agree_or_raise(name, seed, zero_rows):
    """Random laws whose treatment CPT has P(A=1 | row) = 0 on the rows set
    in ``zero_rows``."""
    g = golden(name)
    gen = np.random.default_rng(seed)
    cards = {v: int(gen.integers(2, 4)) for v in g.vertices}
    bn = random_law(g, cards, seed=seed, epsilon=0.02)
    table = np.array(bn.cpts["A"])
    rows = table.reshape(-1, cards["A"])
    for r in range(rows.shape[0]):
        if zero_rows >> r & 1:
            rows[r] = 0.0
            rows[r, 0] = 1.0
    bn = bn.with_cpt("A", table)
    red = reduce(g).output
    out = {
        "g_functional_exact": _outcome(lambda: g_functional_exact(bn, 1)),
        "g_functional_for_graph": _outcome(lambda: g_functional_for_graph(bn, red, 1)),
        "adjustment_exact": _outcome(lambda: adjustment_exact(bn, classify(g).o, 1)),
        "evaluate": _outcome(lambda: evaluate(derive_gformula(red), bn, 1)),
    }
    # a route returns the network's interventional mean or raises
    from oracles import g_functional_loop

    truth = g_functional_loop(bn, 1)
    values = [v for v in out.values() if isinstance(v, float)]
    assert all(abs(v - truth) <= 1e-10 for v in values), (truth, out)
    # the reduced-graph functional and the evaluator are one computation
    assert type(out["g_functional_for_graph"]) is type(out["evaluate"])
    # positivity of P(A=1 | pa(A)) implies positivity given any set of
    # non-descendants of A, so when the network's own check passes every
    # route returns a value
    if isinstance(out["g_functional_exact"], float):
        assert len(values) == len(out), out

    # the variance bound over the influence function's support U equals the
    # one over the dense joint of every vertex
    dense = _outcome(lambda: EifContext.build(bn, 1))
    got = _outcome(lambda: eif_variance(bn, 1))
    if isinstance(dense, EifContext):
        want = float((dense.joint * dense.values**2).sum())
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    else:
        assert type(got) is type(dense) and got.cell == dense.cell

    # every error names its null event: states of named vertices, and for the
    # routes that condition the treatment on the event, an event of positive
    # probability on which A = 1 never occurs
    out["eif_variance"] = got
    for route, exc in out.items():
        if isinstance(exc, float):
            continue
        graph = red if route in ("g_functional_for_graph", "evaluate") else g
        vs = _cell_vertices(exc.cell, graph, route not in ("adjustment_exact", "eif_variance"))
        states = exc.cell[1]
        assert all(0 <= s < cards[v] for v, s in zip(vs, states)), (route, exc.cell)
        if route in ("g_functional_exact", "adjustment_exact", "eif_variance"):
            law = marginal(bn, ["A", *vs])[(slice(None), *states)]
            assert law.sum() > 0.0 and law[1] == 0.0, (route, exc.cell)


LEVEL_ROUTES = {
    "g_functional_exact": lambda bn, red, a: g_functional_exact(bn, a),
    "g_functional_for_graph": lambda bn, red, a: g_functional_for_graph(bn, red, a),
    "evaluate": lambda bn, red, a: evaluate(derive_gformula(red), bn, a),
    "adjustment_exact": lambda bn, red, a: adjustment_exact(bn, {"O"}, a),
    "front_door_exact": lambda bn, red, a: front_door_exact(bn, {"M"}, a),
    "EifContext.build": lambda bn, red, a: EifContext.build(bn, a),
    "eif_exact": lambda bn, red, a: eif_exact(bn, a, (0, 0, 0, 0)),
    "eif_variance": lambda bn, red, a: eif_variance(bn, a),
    "eif_variance_for_graph": lambda bn, red, a: eif_variance_for_graph(bn, red, a),
    "adjustment_if_variance": lambda bn, red, a: adjustment_if_variance(bn, {"O"}, a),
}


@pytest.mark.parametrize("route", LEVEL_ROUTES)
def test_every_exact_route_checks_the_level(route):
    bn = law_on("front_door", 1)
    red = reduce(bn.graph).output
    for a in (-1, bn.cards["A"]):
        with pytest.raises(GraphError, match=f"treatment level {a} out of range"):
            LEVEL_ROUTES[route](bn, red, a)


# -- graphs past the dense joint -----------------------------------------------

def chain_law(n=60, seed=3):
    """W1 -> ... -> W{n-2} -> A -> Y with W{n-2} -> Y: n binary vertices."""
    ws = [f"W{i}" for i in range(1, n - 1)]
    edges = list(zip(ws, ws[1:])) + [(ws[-1], "A"), ("A", "Y"), (ws[-1], "Y")]
    g = Dag(ws + ["A", "Y"], edges, "A", "Y")
    return random_law(g, {v: 2 for v in g.vertices}, seed=seed, epsilon=0.02), ws


class TestChainPastDenseJoint:
    def test_g_routes_match_transition_matrices(self):
        bn, ws = chain_law()
        assert len(bn.graph.vertices) == 60
        p = bn.cpts[ws[0]]
        for w in ws[1:]:
            p = p @ bn.cpts[w]
        want = float(p @ bn.cpts["Y"][:, 1, 1])
        red = reduce(bn.graph).output
        assert set(red.vertices) == {ws[-1], "A", "Y"}
        assert abs(g_functional_exact(bn, 1) - want) <= 1e-12
        assert abs(g_functional_for_graph(bn, red, 1) - want) <= 1e-12
        assert abs(evaluate(derive_gformula(red), bn, 1) - want) <= 1e-12
        assert eif_variance_for_graph(bn, red, 1) >= 0.0

    def test_needed_marginal_past_the_limit_raises(self):
        bn, ws = chain_law()
        # a marginal over 26 binary vertices has 2**26 > 10**7 cells
        with pytest.raises(EnumerationLimitError):
            adjustment_exact(bn, ws[-26:], 1)
        # the influence function of the full chain depends on every vertex
        with pytest.raises(EnumerationLimitError):
            eif_variance(bn, 1)
