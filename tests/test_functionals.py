"""Exact functionals, the influence function, and plugin estimators."""

from functools import partial

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
from causal_reduce import functionals
from causal_reduce.formula import derive_gformula, evaluate
from causal_reduce.functionals import (
    EifContext,
    EmptyCellError,
    adjustment_exact,
    adjustment_if_variance,
    eif_variance,
    eif_variance_for_graph,
    eif_variance_terms,
    front_door_exact,
    g_functional_exact,
    g_functional_for_graph,
    plugin_adjustment,
    plugin_g,
)
from causal_reduce.graph import Dag, GraphError, descendants, parse_graph
from causal_reduce.reduction import reduce
from causal_reduce.simulate import DEFAULTS, SimConfig, build_benchmark_dgp
from causal_reduce.taxonomy import classify
from conftest import LAW_SUITE, golden, positivity_hole_law
from oracles import (
    adjustment_dense,
    eif_dense,
    g_formula_dense,
    g_formula_per_family,
    powerset,
    random_dag,
)


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


def adjustment_cases():
    """The ``LAW_SUITE`` graphs x seeds 0-3 x binary and ternary laws x every
    set of non-descendants of A, with P(A=1 | first parent state) = 0 on odd
    seeds: ``(bn, L)`` pairs."""
    for name in LAW_SUITE:
        g = golden(name)
        nd = [v for v in g.vertices if v not in descendants(g, {"A"})]
        for seed in range(4):
            for card in (2, 3):
                bn = random_law(g, {v: card for v in g.vertices}, seed=seed, epsilon=0.02)
                if seed % 2:
                    table = np.array(bn.cpts["A"])
                    table.reshape(-1, card)[0] = np.eye(card)[0]
                    bn = bn.with_cpt("A", table)
                for L in powerset(nd):
                    yield bn, set(L)


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
        with pytest.raises(PositivityError):
            adjustment_exact(bn, {"L"}, 1)

    def test_routes_match_the_dense_reference(self):
        # each route is the G_L route of the shared kernels; each equals the
        # dense adjustment formula and its influence-function variance, or
        # raises exactly where their conditional given L is undefined, at the
        # first such l in C order
        def check(call, want, error, name):
            if isinstance(want, list):
                with pytest.raises(error) as err:
                    call()
                assert err.value.cell == (name, want[0])
            else:
                got = call()
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)

        for bn, L in adjustment_cases():
            labels = [v for v in bn.graph.vertices if v in set(L) | {"A", "Y"}]
            want = adjustment_dense(marginal(bn, labels), labels, L, "A", "Y", 1)
            psi, var = (want, want) if isinstance(want, list) else want
            event = ",".join(v for v in labels if v in L) or "A"
            check(lambda: adjustment_exact(bn, L, 1), psi, PositivityError, "Y")
            check(lambda: adjustment_if_variance(bn, L, 1), var, PositivityError, event)

            ds = sample(bn, 300, seed=len(L))
            counts = np.zeros([bn.cards[v] for v in labels])
            np.add.at(counts, tuple(ds.column(v) for v in labels), 1.0)
            want = adjustment_dense(counts / ds.n, labels, L, "A", "Y", 1)
            psi = want if isinstance(want, list) else want[0]
            check(lambda: plugin_adjustment(ds, bn.graph, L, 1), psi, EmptyCellError, "Y")

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
        ctx = EifContext.build(bn, 1)
        assert ctx.evaluate((1, 1)) == pytest.approx(1.0)
        assert ctx.evaluate((0, 1)) == pytest.approx(0.0)
        assert eif_variance(bn, 1) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "point, message",
        [
            ((-1, 1), r"state -1 of 'A' is not an integer in \[0, 2\)"),
            ((0.7, 1), r"state 0.7 of 'A' is not an integer in \[0, 2\)"),
            ((2, 1), r"state 2 of 'A' is not an integer in \[0, 2\)"),
            ((1,), "state tuple length does not match the vertex count"),
        ],
        ids=["evaluate-negative", "evaluate-fraction", "evaluate-past_card", "evaluate-short"],
    )
    def test_rejects_a_state_out_of_range(self, point, message):
        # a negative state would wrap, a fraction truncate, a state past the
        # cardinality index out of bounds, a short tuple leave a vertex unread
        ctx = EifContext.build(coin_pair(), 1)
        with pytest.raises(GraphError, match=message):
            ctx.evaluate(point)

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
                states = [point[v] for v in g.vertices]
                assert ctx.evaluate(states) == pytest.approx(want, abs=1e-10)

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
        with pytest.raises(PositivityError) as err:
            adjustment_if_variance(bn, {"L"}, 1)
        assert err.value.cell == ("L", (0,))
        bn = bn.with_cpt("A", np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(PositivityError) as err:
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
        assert plugin_g(ds, g, 1) == pytest.approx(1.0)

    def test_exact_counts_match_exact_functional(self):
        bn = rational_front_door_law()
        ds = exact_count_dataset(bn)
        assert plugin_g(ds, bn.graph, 1) == pytest.approx(
            g_functional_exact(bn, 1), abs=1e-10
        )
        assert plugin_adjustment(ds, bn.graph, {"O"}, 1) == pytest.approx(
            adjustment_exact(bn, {"O"}, 1), abs=1e-10
        )

    def test_adjustment_empty_set_is_treated_mean(self):
        rows = np.array([[1, 1], [1, 0], [0, 1], [1, 1]])
        ds = Dataset(("A", "Y"), rows, {"A": 2, "Y": 2})
        got = plugin_adjustment(ds, golden("trivial"), set(), 1)
        assert got == pytest.approx(2 / 3)

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
        assert err.value.cell == ("Y", (1,))
        with pytest.raises(EmptyCellError) as err:
            plugin_adjustment(ds, g, {"O"}, 1)
        assert err.value.cell == ("Y", (1,))

    def test_empty_cell_is_the_exact_routes_cell(self):
        # counts proportional to a law with P(A=1 | O=0) = 0: each plugin
        # answers what its exact route answers, or raises at the same cell,
        # with the exact route's error as its cause; a mediator that copies A
        # makes p(y | m=1, o=0) a needed null event without the treatment
        law = rational_front_door_law()
        law = law.with_cpt("A", np.array([[1.0, 0.0], [0.25, 0.75]]))
        raised = set()
        for bn in (law, law.with_cpt("M", np.eye(2))):
            ds = exact_count_dataset(bn)
            routes = [
                (partial(g_functional_for_graph, bn, graph), partial(plugin_g, ds, graph))
                for graph in (bn.graph, reduce(bn.graph).output)
            ]
            adjust = (partial(adjustment_exact, bn, {"O"}), partial(plugin_adjustment, ds, bn.graph, {"O"}))
            for exact, plugin in routes + [adjust]:
                for a in (0, 1):
                    want, got = _outcome(lambda: exact(a)), _outcome(lambda: plugin(a))
                    if isinstance(want, float):
                        assert abs(got - want) <= 1e-12
                        continue
                    assert type(got) is EmptyCellError and type(got.__cause__) is type(want)
                    assert got.cell == want.cell
                    raised.add((type(want), want.cell))
        # Y's parents are O, M: the null events are o=0 at a=1 and o=0, m=1
        assert raised == {(PositivityError, ("Y", (0,))), (ZeroConditioningEvent, ("Y", (0, 1)))}

    def test_laplace_opt_in(self):
        g = golden("trivial")
        rows = np.array([[0, 0], [0, 1]])
        ds = Dataset(("A", "Y"), rows, {"A": 2, "Y": 2})
        # the unobserved row A = 1 reads (0 + 1) / (0 + 2)
        assert plugin_g(ds, g, 1, laplace=1.0) == 0.5

    def test_laplace_is_added_to_each_family_after_summing(self):
        # the labels have 8 cells, so each family is summed from one count
        # table over O, A, Y; laplace is added to the family's own cells:
        # P(O) = (3+1, 1+1) / 6, E[Y | A=1, O] = (1+1) / 3 and (0+1) / 3.
        # Added to the table over all labels first, P(O) would read
        # (3+4, 1+4) / 12 and the value 19/36.
        g = parse_graph("!treatment A\n!outcome Y\nO -> A\nO -> Y\nA -> Y")
        rows = np.array([[0, 1, 1], [0, 0, 0], [0, 0, 1], [1, 1, 0]])
        ds = Dataset(("O", "A", "Y"), rows, {"O": 2, "A": 2, "Y": 2})
        assert plugin_g(ds, g, 1, laplace=1.0) == pytest.approx(5 / 9, abs=1e-15)

    def test_plugin_consistency(self):
        bn = rational_front_door_law()
        truth = g_functional_exact(bn, 1)
        ds = sample(bn, 200_000, seed=17)
        est = plugin_g(ds, bn.graph, 1)
        assert abs(est - truth) < 0.01

    def test_plugins_do_not_depend_on_the_rows_memory_layout(self):
        # a sample's columns are contiguous, a CSV's are strided: the counts
        # and so the floats are the same
        bn = rational_front_door_law()
        ds = sample(bn, 5000, seed=3)
        rows = np.ascontiguousarray(ds.rows)
        assert not ds.rows.flags.c_contiguous and rows.flags.c_contiguous
        other = Dataset(ds.columns, rows, ds.cards)
        for graph in (bn.graph, reduce(bn.graph).output):
            assert plugin_g(other, graph, 1) == plugin_g(ds, graph, 1)
        adjust = partial(plugin_adjustment, g=bn.graph, L={"O"}, a=1)
        assert adjust(other) == adjust(ds)

    def test_extra_columns_ignored(self):
        # a dataset may carry more columns than the estimating graph uses
        bn = rational_front_door_law()
        ds = sample(bn, 5000, seed=2)
        red = parse_graph("!treatment A\n!outcome Y\nA -> Y\nO -> A\nO -> Y\nM\n")
        sub = parse_graph("!treatment A\n!outcome Y\nA -> Y\nO -> A\nO -> Y")
        assert plugin_g(ds, sub, 1) == pytest.approx(plugin_g(ds, red, 1))


def _fresh(g):
    """A copy of ``g`` that keeps no plan yet."""
    return Dag(g.vertices, g.edges, g.treatment, g.outcome)


class TestPluginPlan:
    """``functionals._plugin``, the plan that ``plugin_g`` keeps on a graph
    and applies to every later dataset, answers and raises as a plan made
    for one dataset does."""

    EMPTY = (
        "no observations at needed cell {cell}: p({child} | {parents}) at A=1 "
        "needs a null event (cell {cell})"
    )

    def test_an_unobserved_cell_raises_as_plugin_g(self):
        # the labels' 8 cells are counted in one table; A = 1 is seen only
        # with O = 0, so both estimators need the unobserved cell O = 1, A = 1
        g = parse_graph("!treatment A\n!outcome Y\nO -> A\nO -> Y\nA -> Y")
        rows = np.array([[0, 1, 1], [0, 0, 0], [1, 0, 1], [1, 0, 0]])
        ds = Dataset(("O", "A", "Y"), rows, {"O": 2, "A": 2, "Y": 2})
        message = self.EMPTY.format(cell=("Y", (1,)), child="Y", parents="O, A")
        estimates = [partial(plugin_adjustment, g=g, L=["O"], a=1)]
        for graph in (g, functionals._adjustment_graph(g, {"O"})):
            estimates += [partial(plugin_g, g=graph, a=1), functionals._plugin(graph, ds.cards, 1)]
        for estimate in estimates * 2:  # the second round reads the kept plans
            with pytest.raises(EmptyCellError) as err:
                estimate(ds)
            assert str(err.value) == message
            assert err.value.cell == ("Y", (1,))

    def test_an_unobserved_cell_of_per_family_counts(self):
        # design b's labels have 50 * 50 * 10 * 8 cells, so each family is
        # counted on its own; 400 rows miss the covariate pair (0, 1)
        bn = build_benchmark_dgp(SimConfig("b", 50, 10, 400, 1, 0))
        ds = sample(bn, 400, seed=0)
        message = self.EMPTY.format(cell=("W4", (0, 1)), child="W4", parents="W2, W3")
        estimates = (partial(plugin_g, g=bn.graph, a=1), functionals._plugin(bn.graph, bn.cards, 1))
        for estimate in estimates * 2:
            with pytest.raises(EmptyCellError) as err:
                estimate(ds)
            assert str(err.value) == message
            assert err.value.cell == ("W4", (0, 1))

    @pytest.mark.parametrize("laplace", [None, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("design, n", [("a", 90), ("a", 3000), ("b", 400), ("b", 20_000)])
    def test_one_plan_for_many_datasets_is_plugin_g(self, design, n, laplace):
        # one plan, and the plan plugin_g keeps on the graph, applied to
        # datasets drawn in turn give each dataset's plugin_g on a graph
        # that keeps no plan, to the bit, or its error; design a counts one
        # table over the labels and design b counts each family
        cfg = SimConfig(design, n=n, replications=1, seed=0, **DEFAULTS[design])
        bn = build_benchmark_dgp(cfg)
        graphs = (bn.graph, reduce(bn.graph).output, functionals._adjustment_graph(bn.graph, {"O1"}))
        plans = [functionals._plugin(graph, bn.cards, 1, laplace) for graph in graphs]
        for seed in range(4):
            ds = sample(bn, n, seed)
            for graph, plan in zip(graphs, plans):
                want = _outcome(lambda: plugin_g(ds, _fresh(graph), 1, laplace))
                for got in (_outcome(lambda: plan(ds)), _outcome(lambda: plugin_g(ds, graph, 1, laplace))):
                    if isinstance(want, float):
                        assert float.hex(got) == float.hex(want)
                    else:
                        assert type(got) is type(want) and str(got) == str(want)
                        assert got.cell == want.cell

    def test_plans_are_kept_per_graph_and_call(self):
        # two equal graphs that declare their vertices in other orders, each
        # asked at other levels, smoothings and adjustment sets in turn:
        # every answer is that of a graph that keeps no plan
        g = parse_graph("!treatment A\n!outcome Y\nW -> A\nW -> Y\nA -> M\nM -> Y\nV -> Y")
        h = Dag(tuple(reversed(g.vertices)), g.edges, "A", "Y")
        bn = random_law(g, {"W": 3, "A": 3, "M": 2, "V": 4, "Y": 3}, seed=5)
        ds = sample(bn, 20_000, seed=1)
        calls = [(a, laplace) for a in (1, 0, 2) for laplace in (None, 0.5)] * 2
        for graph in (g, h, g):
            for a, laplace in calls:
                got = plugin_g(ds, graph, a, laplace)
                assert float.hex(got) == float.hex(plugin_g(ds, _fresh(graph), a, laplace))
            for L in (["W"], ["V", "W"], ["W", "V"], [], ["W"]):
                got = plugin_adjustment(ds, graph, iter(L), 1)
                assert float.hex(got) == float.hex(plugin_adjustment(ds, _fresh(graph), L, 1))
            for _ in range(2):  # a refused set is never kept
                with pytest.raises(GraphError, match="adjustment set may not hold M"):
                    plugin_adjustment(ds, graph, ["M"], 1)


class TestReadmePositivityExamples:
    """The two worked examples of the README's Positivity section."""

    def test_motivating_without_treatment_at_i1_0(self):
        g = golden("motivating")
        bn = random_law(g, {v: 2 for v in g.vertices}, seed=3, epsilon=0.02)
        bn = bn.with_cpt("A", np.array([[1.0, 0.0], bn.cpts["A"][1]]))
        red = reduce(g).output
        for value in (
            g_functional_for_graph(bn, red, 1),
            evaluate(derive_gformula(red), bn, 1),
            adjustment_exact(bn, {"O1"}, 1),
        ):
            assert round(value, 5) == 0.62825
        with pytest.raises(PositivityError) as err:
            g_functional_exact(bn, 1)
        assert err.value.cell == ("A", (0,))

    def test_front_door_without_treatment_at_o_0(self):
        g = golden("front_door")
        bn = random_law(g, {v: 2 for v in g.vertices}, seed=3, epsilon=0.02)
        bn = bn.with_cpt("A", np.array([[1.0, 0.0], bn.cpts["A"][1]]))
        with pytest.raises(PositivityError) as err:
            adjustment_exact(bn, {"O"}, 1)
        assert err.value.cell == ("Y", (0,))
        for value in (
            front_door_exact(bn, {"M"}, 1),
            g_functional_for_graph(bn, reduce(g).output, 1),
        ):
            assert round(value, 5) == 0.62476


# -- every exact route against every other ------------------------------------

def _outcome(call):
    try:
        return call()
    except (PositivityError, ZeroConditioningEvent, EmptyCellError) as exc:
        return exc


def _with_zero_rows(bn, zero_rows):
    """``bn`` with P(A=1 | row) = 0 on each row of the treatment's CPT whose
    bit is set in ``zero_rows``."""
    table = np.array(bn.cpts["A"])
    rows = table.reshape(-1, bn.cards["A"])
    for r in range(rows.shape[0]):
        if zero_rows >> r & 1:
            rows[r] = 0.0
            rows[r, 0] = 1.0
    return bn.with_cpt("A", table)


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
    bn = _with_zero_rows(law_on(name, seed), zero_rows)
    cards = bn.cards
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
    # the influence function at a point reads the same family tables
    zeros = [0] * len(g.vertices)
    at = _outcome(lambda: EifContext.build(bn, 1).evaluate(zeros))
    if isinstance(got, float):
        want = dense.evaluate(zeros)
        assert abs(at - want) <= 1e-12 * max(1.0, abs(want))
    else:
        assert type(at) is type(got) and at.cell == got.cell

    # every error names its null event: states of named vertices, and for the
    # routes that condition the treatment on the event, an event of positive
    # probability on which A = 1 never occurs
    out["eif_variance"] = got
    for route, exc in out.items():
        if isinstance(exc, float):
            continue
        graph = red if route in ("g_functional_for_graph", "evaluate") else g
        if route == "adjustment_exact":
            graph = functionals._adjustment_graph(g, classify(g).o)
        vs = _cell_vertices(exc.cell, graph, route != "eif_variance")
        states = exc.cell[1]
        assert all(0 <= s < cards[v] for v, s in zip(vs, states)), (route, exc.cell)
        if route in ("g_functional_exact", "adjustment_exact", "eif_variance"):
            law = marginal(bn, ["A", *vs])[(slice(None), *states)]
            assert law.sum() > 0.0 and law[1] == 0.0, (route, exc.cell)


@given(
    st.sampled_from(LAW_SUITE),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=2**27 - 1),
)
@settings(max_examples=30, deadline=None)
def test_eif_context_is_the_dense_reference(name, seed, zero_rows):
    # full graph and reduced: the dense views and the points read from the
    # family differences equal the dense reference bit for bit, or both
    # raise the same error at the same cell
    bn = _with_zero_rows(law_on(name, seed), zero_rows)
    rng = np.random.default_rng(seed)
    for graph in (bn.graph, reduce(bn.graph).output):
        want = _outcome(lambda: eif_dense(bn, 1, graph))
        ctx = _outcome(lambda: EifContext.build(bn, 1, graph))
        if not isinstance(ctx, EifContext):
            assert type(ctx) is type(want) and ctx.cell == want.cell
            continue
        values, joint = want
        assert np.array_equal(ctx.values, values) and np.array_equal(ctx.joint, joint)
        for point in rng.integers(0, values.shape, size=(16, values.ndim)).tolist():
            assert ctx.evaluate(point) == values[tuple(point)]


LEVEL_ROUTES = {
    "g_functional_exact": lambda bn, red, a: g_functional_exact(bn, a),
    "g_functional_for_graph": lambda bn, red, a: g_functional_for_graph(bn, red, a),
    "evaluate": lambda bn, red, a: evaluate(derive_gformula(red), bn, a),
    "adjustment_exact": lambda bn, red, a: adjustment_exact(bn, {"O"}, a),
    "front_door_exact": lambda bn, red, a: front_door_exact(bn, {"M"}, a),
    "EifContext.build": lambda bn, red, a: EifContext.build(bn, a),
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
        # the influence function of the full chain depends on every vertex,
        # but each term of its variance needs only one family's table
        red = reduce(bn.graph).output
        assert abs(eif_variance(bn, 1) - eif_variance_for_graph(bn, red, 1)) <= 1e-10

    def test_eif_at_a_point_is_the_reduced_graph_eif(self):
        # the influence function does not depend on the uninformative
        # vertices: at a point of the 60-vertex chain it is the reduced
        # graph's at that point restricted to the reduced graph's vertices
        bn, _ = chain_law()
        red = reduce(bn.graph).output
        full, ctx = EifContext.build(bn, 1), EifContext.build(bn, 1, red)
        rng = np.random.default_rng(7)
        for _ in range(20):
            point = dict(zip(bn.graph.vertices, rng.integers(2, size=60).tolist()))
            want = ctx.evaluate([point[v] for v in red.vertices])
            got = full.evaluate(list(point.values()))
            assert abs(got - want) <= 1e-12

    def test_dense_views_past_the_limit_raise_on_first_read(self):
        # 2**60 cells: the context and its points answer, its dense views
        # are refused
        bn, _ = chain_law()
        ctx = EifContext.build(bn, 1)
        assert np.isfinite(ctx.evaluate([0] * 60))
        for view in ("values", "joint"):
            with pytest.raises(EnumerationLimitError):
                getattr(ctx, view)


# -- every family table from one calibrated pass ------------------------------

def _law_with_hole(k: int):
    """A binary law on a random 16-vertex DAG, 2**16 cells over its labels,
    with a null event chosen by ``k % 3``: P(A=1 | pa) = 0 in one row of the
    treatment's CPT; a root state of probability 0; or that treatment row
    together with a child of the treatment other than the outcome, where
    there is one, that copies it."""
    rng = np.random.default_rng(2700 + k)
    g = random_dag(rng, 16, 0.25, ensure_assumption=True)
    bn = random_law(g, {v: 2 for v in g.vertices}, seed=k, epsilon=0.02)
    treat = g.treatment
    if k % 3 == 1:
        root = [v for v in g.vertices if not g.parent_list(v)][0]
        return bn.with_cpt(root, np.array([1.0, 0.0]))
    table = np.array(bn.cpts[treat])
    rows = table.reshape(-1, 2)
    rows[int(rng.integers(len(rows)))] = (1.0, 0.0)
    bn = bn.with_cpt(treat, table)
    children = [v for v in g.vertices if treat in g.parent_list(v) and v != g.outcome]
    if k % 3 == 2 and children:
        child = children[0]
        copy = np.zeros(bn.cpts[child].shape)
        at = [slice(None)] * copy.ndim
        for s in (0, 1):
            at[g.parent_list(child).index(treat)] = at[-1] = s
            copy[tuple(at)] = 1.0
        bn = bn.with_cpt(child, copy)
    return bn


class TestOneCalibratedPass:
    """Past 2**14 cells the g-formula routes and the variance routes read all
    their family tables from one calibrated pass: each answers as one
    contraction per family does within 1e-12, or raises the same error at
    the same cell."""

    def test_routes_match_per_family_reads(self, monkeypatch):
        seen = set()
        for k in range(24):
            bn = _law_with_hole(k)
            g = bn.graph
            red = reduce(g).output
            o = classify(g).o
            pairs = [
                (route, partial(g_formula_per_family, bn, graph, 1))
                for graph in (g, red)
                for route in (
                    partial(g_functional_for_graph, bn, graph, 1),
                    partial(evaluate, derive_gformula(graph), bn, 1),
                )
            ] + [(
                lambda: adjustment_exact(bn, o, 1),
                lambda: g_formula_per_family(bn, functionals._adjustment_graph(g, o), 1),
            )]
            variances = [lambda: eif_variance(bn, 1), lambda: eif_variance_for_graph(bn, red, 1)]
            got = [_outcome(route) for route, _ in pairs] + [_outcome(v) for v in variances]
            want = [_outcome(oracle) for _, oracle in pairs]
            # the variance routes' reference is their dense branch, which
            # sums every family's table from the law over the support
            with monkeypatch.context() as m:
                m.setattr(functionals, "_DENSE_CELLS", 2**20)
                want += [_outcome(v) for v in variances]
            for i, (x, y) in enumerate(zip(got, want)):
                if isinstance(y, float):
                    assert abs(x - y) <= 1e-12 * max(1.0, abs(y)), (k, i, x, y)
                else:
                    assert type(x) is type(y) and x.cell == y.cell, (k, i, x, y)
                seen.add(type(x))
        assert seen == {float, PositivityError, ZeroConditioningEvent}

    def test_identities_on_a_chained_graph(self):
        # the paper's identities at the benchmark's scale: the covariate web
        # with three covariate chains and two mediator chains, 84 vertices
        g = _chained_web(14)
        assert len(g.vertices) == 84
        bn = random_law(g, {v: 2 for v in g.vertices}, seed=1, epsilon=0.02)
        red = reduce(g).output
        assert len(red.vertices) < 20
        assert abs(g_functional_for_graph(bn, red, 1) - g_functional_exact(bn, 1)) <= 1e-12
        assert abs(eif_variance(bn, 1) - eif_variance_for_graph(bn, red, 1)) <= 1e-10


def _chained_web(length: int) -> Dag:
    """The covariate web with a chain of ``length`` covariates feeding each
    of W1, W3 and W6, which reduction removes, and two mediator chains of
    ``length`` vertices hanging off A, each vertex a child of A, that end in
    a vertex E_k, a parent of Y: the shape of the benchmark's chained
    graphs, 12 + 5 * length + 2 vertices."""
    web = golden("covariate_web")
    vertices, edges = list(web.vertices), list(web.edges)
    for c, target in enumerate(("W1", "W3", "W6")):
        chain = [f"C{c}_{k}" for k in range(length)]
        vertices += chain
        edges += list(zip(chain[1:], chain)) + [(chain[0], target)]
    for c in range(2):
        chain = [f"D{c}_{k}" for k in range(length)] + [f"E{c}"]
        vertices += chain
        edges += list(zip(chain, chain[1:])) + [("A", v) for v in chain] + [(chain[-1], "Y")]
    return Dag(vertices, edges, "A", "Y")


# -- the variance bound as a sum of per-family terms ----------------------------

# the covariate web with its I vertex replaced by two mediators: 13 vertices,
# every one of them in the influence function's support
MEDIATED_WEB_TEXT = """\
!treatment A
!outcome Y
A -> M1
M1 -> M2
M2 -> Y
A -> Y
W1 -> A
W1 -> O3
O3 -> Y
O1 -> Y
O1 -> A
W2 -> A
W2 -> O1
W3 -> W2
W4 -> W2
O2 -> Y
W5 -> O2
W5 -> O1
W5 -> W2
W5 -> W6
W6 -> O2
"""


def _table_sizes(monkeypatch):
    """The cells of every table checked against the enumeration guard from
    now on, in the order asked."""
    import math

    import causal_reduce.bn as bn_module

    asked = []
    check = bn_module.check_enumerable

    def recorded(cards):
        cards = list(cards)
        asked.append(math.prod(cards))
        check(cards)

    monkeypatch.setattr(bn_module, "check_enumerable", recorded)
    monkeypatch.setattr(functionals, "check_enumerable", recorded)
    return asked


def _dense_bound(bn):
    ctx = EifContext.build(bn, 1)
    return float((ctx.joint * ctx.values**2).sum())


def _zero_treatment_row(bn, row):
    table = np.array(bn.cpts["A"])
    table[row] = 0.0
    table[row + (0,)] = 1.0
    return bn.with_cpt("A", table)


class TestVarianceTerms:
    @pytest.mark.parametrize("name", ["motivating", "mediator_chain", "covariate_web", "zoo"])
    def test_bound_is_the_sum_of_the_terms(self, name):
        g = golden(name)
        red = reduce(g).output
        for seed in range(3):
            bn = law_on(name, seed)
            for graph, bound in ((g, eif_variance(bn, 1)), (red, eif_variance_for_graph(bn, red, 1))):
                terms = eif_variance_terms(bn, graph, 1)
                tax = classify(graph)
                assert list(terms) == [v for v in graph.vertices if v in tax.w | tax.m]
                assert all(t >= 0.0 for t in terms.values())
                assert bound == sum(terms.values())

    def test_contraction_past_the_dense_support_matches_the_dense_bound(self):
        # U holds 2**15 cells on the 15-vertex chain and 5**7 on motivating
        chain, ws = chain_law(15)
        g = golden("motivating")
        bns = [chain, random_law(g, {v: 5 for v in g.vertices}, seed=4, epsilon=0.02)]
        for bn in bns:
            want = _dense_bound(bn)
            assert abs(eif_variance(bn, 1) - want) <= 1e-12 * want
        # P(A=1 | W13=0) = 0 on the chain; A=1 never occurs on motivating
        cells = []
        for bn in (_zero_treatment_row(bns[0], (0,)), _zero_treatment_row(bns[1], (slice(None),))):
            with pytest.raises(PositivityError) as dense:
                EifContext.build(bn, 1)
            with pytest.raises(PositivityError) as got:
                eif_variance(bn, 1)
            cells.append(got.value.cell)
            assert got.value.cell == dense.value.cell
        assert cells == [("W13", (0,)), ("O1", (0,))]

    @pytest.mark.parametrize("route", ["eif_variance", "EifContext.evaluate"])
    def test_forms_no_table_past_the_dense_limit(self, monkeypatch, route):
        g = parse_graph(MEDIATED_WEB_TEXT)
        tax = classify(g)
        assert len(g.vertices) == 13 and not tax.n | tax.i
        bn = random_law(g, {v: 3 for v in g.vertices}, seed=1, epsilon=0.02)
        asked = _table_sizes(monkeypatch)
        if route == "eif_variance":
            assert eif_variance(bn, 1) > 0.0
        else:
            assert np.isfinite(EifContext.build(bn, 1).evaluate([0] * 13))
        assert asked and max(asked) <= 2**14


# -- the g-formula past the dense limit -----------------------------------------

def _g_routes(bn, graph, ds=None):
    routes = {
        "g_functional_for_graph": lambda: g_functional_for_graph(bn, graph, 1),
        "evaluate": lambda: evaluate(derive_gformula(graph), bn, 1),
    }
    if ds is not None:
        routes["plugin_g"] = lambda: plugin_g(ds, graph, 1)
    return routes


class TestGFormulaPastDenseLabels:
    def test_full_chain_matches_the_network_functional(self):
        bn, _ = chain_law()
        want = g_functional_exact(bn, 1)
        for name, call in _g_routes(bn, bn.graph).items():
            assert abs(call() - want) <= 1e-12, name

    @pytest.mark.parametrize("n, seed", [(26, 1), (42, 2)])
    def test_full_graph_plugin_is_the_reduced_graph_plugin(self, n, seed):
        bn, _ = chain_law(n, seed)
        ds = sample(bn, 5000, seed)
        full = plugin_g(ds, bn.graph, 1)
        assert abs(full - plugin_g(ds, reduce(bn.graph).output, 1)) <= 1e-12

    def test_positivity_hole_names_the_cell(self):
        # 2**16 label cells on the full chain, 8 on the reduced graph; P(A=1 |
        # W14=0) = 0
        bn, _ = chain_law(16, 4)
        bn = _zero_treatment_row(bn, (0,))
        for graph in (bn.graph, reduce(bn.graph).output):
            for name, call in _g_routes(bn, graph).items():
                with pytest.raises(PositivityError) as exc:
                    call()
                assert exc.value.cell == ("Y", (0,)), (name, graph.vertices)

    def test_needed_null_event_without_treatment_names_the_cell(self):
        # the M-copies-A law behind 14 binary ancestors of O: 2**18 label
        # cells; p(y | o=0, m=1) is needed at level 1, and P(o=0, m=1) = 0
        ws = [f"W{i}" for i in range(1, 15)]
        edges = list(zip(ws, ws[1:])) + [(ws[-1], "O"), ("O", "A"), ("A", "M"), ("M", "Y"), ("O", "Y")]
        g = Dag(ws + ["O", "A", "M", "Y"], edges, "A", "Y")
        bn = random_law(g, {v: 2 for v in g.vertices}, seed=5, epsilon=0.02)
        bn = bn.with_cpt("A", np.array([[1.0, 0.0], [0.3, 0.7]]))
        bn = bn.with_cpt("M", np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert g.parent_list("Y") == ("O", "M")
        for name, call in _g_routes(bn, g).items():
            with pytest.raises(ZeroConditioningEvent) as exc:
                call()
            assert exc.value.cell == ("Y", (0, 1)), name

    @given(
        st.sampled_from(LAW_SUITE),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=2**27 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_routes_match_the_dense_product(self, name, seed, zero_rows):
        # every law of the suite, full graph and reduced, on the law and on a
        # sparse sample of it: the dense product's value to 1e-12, or an
        # error of the right type at a needed null cell of the dense
        # product's first factor that has one
        bn = _with_zero_rows(law_on(name, seed), zero_rows)
        ds = sample(bn, 40, seed)
        for graph in (bn.graph, reduce(bn.graph).output):
            labels = list(graph.vertices)
            treat = graph.treatment
            factors = [(fa.child, fa.parents) for fa in derive_gformula(graph).factors]
            counts = np.zeros([ds.card(v) for v in labels])
            np.add.at(counts, tuple(ds.column(v) for v in labels), 1.0)
            routes = _g_routes(bn, graph, ds)
            for route, call in routes.items():
                table = counts if route == "plugin_g" else marginal(bn, labels)
                want = g_formula_dense(table, labels, factors, treat, graph.outcome, 1)
                got = _outcome(call)
                if isinstance(want, float):
                    assert abs(got - want) <= 1e-12, (route, got, want)
                    continue
                child, cells = want[0]
                error = PositivityError if treat in graph.parents(child) else ZeroConditioningEvent
                if route == "plugin_g":
                    error = EmptyCellError
                assert type(got) is error, (route, got, want)
                assert got.cell[0] == child and got.cell[1] in cells, (route, got.cell, want)

    def test_routes_name_the_first_null_factor_in_topological_order(self):
        # declared Y, M, O, A; topological order O, A, M, Y.  With P(A=1 |
        # O=0) = 0, p(m | a, o) and p(y | a, m, o) both need a null event
        # at O=0; every route names p(m | a, o), the first in that order,
        # and the two exact routes are one computation
        g = parse_graph(
            "!treatment A\n!outcome Y\nY\nM\nO -> A\nO -> Y\nA -> Y\nA -> M\nM -> Y\nO -> M\n"
        )
        bn = _zero_treatment_row(random_law(g, {v: 2 for v in g.vertices}, seed=3, epsilon=0.02), (0,))
        ds = sample(bn, 2000, 1)
        got = {route: _outcome(call) for route, call in _g_routes(bn, g, ds).items()}
        assert [type(exc) for exc in got.values()] == [PositivityError, PositivityError, EmptyCellError]
        assert {exc.cell for exc in got.values()} == {("M", (0,))}
        for seed in range(3):
            bn = law_on("zoo", seed)
            for graph in (bn.graph, reduce(bn.graph).output):
                exact = [route() for route in _g_routes(bn, graph).values()]
                assert exact[0] == exact[1], (seed, graph.vertices)

    def test_forms_no_table_past_the_dense_limit(self, monkeypatch):
        g = parse_graph(MEDIATED_WEB_TEXT)
        bn = random_law(g, {v: 3 for v in g.vertices}, seed=1, epsilon=0.02)
        want = g_functional_exact(bn, 1)
        asked = _table_sizes(monkeypatch)
        assert abs(g_functional_for_graph(bn, g, 1) - want) <= 1e-12
        assert asked and max(asked) <= 2**14
