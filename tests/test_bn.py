"""Discrete networks: validation, enumeration, generation, sampling, io."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_reduce.bn import (
    ENUMERATION_LIMIT,
    Dataset,
    DiscreteBn,
    EnumerationLimitError,
    NormalizationError,
    bn_from_json,
    bn_to_json,
    contract,
    contract_each,
    dataset_from_csv,
    dataset_to_csv,
    derive_seed,
    joint_table,
    marginal,
    random_law,
    sample,
)
from causal_reduce import bn as bn_module
from causal_reduce.graph import Dag, GraphError, d_separated
from causal_reduce.simulate import DEFAULTS, SimConfig, build_benchmark_dgp
from conftest import LAW_SUITE, golden
from oracles import contract_dense, joint_prob_loop, random_dag, sample_gathered


def coin_pair() -> DiscreteBn:
    g = golden("trivial")
    return DiscreteBn(
        g,
        {"A": 2, "Y": 2},
        {"A": np.array([0.5, 0.5]), "Y": np.array([[0.5, 0.5], [0.5, 0.5]])},
    )


def biased_chain() -> DiscreteBn:
    g = golden("trivial")
    return DiscreteBn(
        g,
        {"A": 2, "Y": 2},
        {"A": np.array([0.5, 0.5]), "Y": np.array([[0.7, 0.3], [0.3, 0.7]])},
    )


class TestValidate:
    def test_valid_network_passes(self):
        assert set(coin_pair().cpts) == {"A", "Y"}

    def test_normalization_error(self):
        g = golden("trivial")
        with pytest.raises(NormalizationError):
            DiscreteBn(
                g,
                {"A": 2, "Y": 2},
                {
                    "A": np.array([0.5, 0.4]),
                    "Y": np.array([[0.5, 0.5], [0.5, 0.5]]),
                },
            )

    def test_shape_checked_at_construction(self):
        g = golden("trivial")
        with pytest.raises(Exception):
            DiscreteBn(
                g, {"A": 2, "Y": 2}, {"A": np.array([0.5, 0.5]), "Y": np.array([0.5, 0.5])}
            )

    @pytest.mark.parametrize(
        "cards, cpts, message",
        [
            ({"A": 2}, {"A": [0.5, 0.5]}, "missing cardinality for 'Y'"),
            ({"A": 2, "Y": 0}, {"A": [0.5, 0.5]}, "cardinality of 'Y' must be >= 1"),
            ({"A": 2, "Y": 2}, {"A": [0.5, 0.5]}, "missing CPT for 'Y'"),
        ],
    )
    def test_missing_or_empty_declarations_refused(self, cards, cpts, message):
        with pytest.raises(GraphError, match=message):
            DiscreteBn(golden("trivial"), cards, cpts)


class TestJointTable:
    def test_sums_to_one_and_matches_loop(self, rng):
        for _ in range(10):
            g = random_dag(rng, 5, 0.5, ensure_assumption=True)
            cards = {v: int(rng.integers(2, 4)) for v in g.vertices}
            bn = random_law(g, cards, seed=int(rng.integers(10**6)), epsilon=0.02)
            table = joint_table(bn)
            assert abs(float(table.sum()) - 1.0) <= 1e-10
            states = tuple(int(rng.integers(cards[v])) for v in g.vertices)
            assignment = dict(zip(g.vertices, states))
            assert float(table[states]) == pytest.approx(
                joint_prob_loop(bn, assignment)
            )

    def test_marginal_sums_the_joint(self, rng):
        for _ in range(10):
            g = random_dag(rng, 6, 0.5, ensure_assumption=True)
            cards = {v: int(rng.integers(2, 4)) for v in g.vertices}
            bn = random_law(g, cards, seed=int(rng.integers(10**6)), epsilon=0.02)
            keep = list(rng.permutation(g.vertices)[: int(rng.integers(0, 6))])
            table = joint_table(bn)
            drop = tuple(i for i, v in enumerate(g.vertices) if v not in keep)
            rest = [v for v in g.vertices if v in keep]
            want = np.transpose(table.sum(axis=drop), [rest.index(v) for v in keep])
            assert np.allclose(marginal(bn, keep), want, rtol=0.0, atol=1e-15)

    def test_enumeration_guard(self):
        labels = [f"V{i}" for i in range(30)]
        g = Dag(labels, [(labels[0], labels[1])], labels[0], labels[1])
        cpts = {v: np.full((2,) * len(g.parent_list(v)) + (2,), 0.5) for v in labels}
        bn = DiscreteBn(g, {v: 2 for v in labels}, cpts)
        with pytest.raises(EnumerationLimitError):
            joint_table(bn)


@st.composite
def factor_sets(draw, past_dense):
    """Factors over vertices of 1-3 states, tables from a drawn seed, and a
    ``keep`` in any order.  Below the 2**14-cell rule every product has at
    most 3**8 cells; past it the vertices' product exceeds 2**14 and a chain
    of pair factors names every vertex."""
    if past_dense:
        cards = draw(st.lists(st.integers(2, 3), min_size=9, max_size=12))
        while math.prod(cards) <= 2**14:
            cards.append(3)
        cards += [1] * draw(st.integers(0, 2))
    else:
        cards = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    names = [f"v{i}" for i in range(len(cards))]
    index = st.integers(0, len(names) - 1)
    subsets = draw(st.lists(st.lists(index, unique=True, max_size=4), max_size=8))
    if past_dense:
        subsets += [[i, i + 1] for i in range(len(names) - 1)]
    keep = [names[i] for i in draw(st.lists(index, unique=True, max_size=4))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = [
        (tuple(names[i] for i in s), rng.random([cards[i] for i in s])) for s in subsets
    ]
    return factors, dict(zip(names, cards)), keep


class TestContract:
    """``contract`` against the dense oracle, on both sides of the 2**14-cell
    rule that chooses one einsum call or ``contract_each``'s clique tree."""

    @pytest.mark.parametrize("past_dense", [False, True])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_dense_product(self, past_dense, data):
        factors, cards, keep = data.draw(factor_sets(past_dense))
        got = contract(factors, cards, keep)
        want = contract_dense(factors, cards, keep)
        assert got.shape == tuple(cards[v] for v in keep)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert isinstance(got, np.ndarray) and got.flags.writeable
        assert not any(np.shares_memory(got, table) for _, table in factors)

    def test_one_factor_result_is_a_fresh_array(self):
        bn = biased_chain()
        for got, table in (
            (marginal(bn, ["A"]), bn.cpts["A"]),
            (contract([(("A", "Y"), bn.cpts["Y"])], bn.cards, ["Y", "A"]), bn.cpts["Y"]),
        ):
            assert got.flags.writeable and not np.shares_memory(got, table)
        np.testing.assert_array_equal(marginal(bn, ["A"]), bn.cpts["A"])

    def test_more_labels_than_einsum_takes(self):
        # 60 vertices of one state and two of two: 4 cells, 62 labels
        names = [f"u{i}" for i in range(60)]
        cards = {**{v: 1 for v in names}, "x": 2, "y": 2}
        rng = np.random.default_rng(3)
        factors = [
            (tuple(names[i : i + 10]) + (xy,), rng.random([1] * 10 + [2]))
            for i, xy in zip(range(0, 60, 10), "xyxyxy")
        ]
        # the same product with the one-state axes dropped
        squeezed = [(axes[-1:], t.reshape(2)) for axes, t in factors]
        for keep in ([], ["y", "u3"], ["x", "y"]):
            got = contract(factors, cards, keep)
            np.testing.assert_allclose(got, contract(factors[::-1], cards, keep), rtol=1e-12)
            np.testing.assert_allclose(got, contract_dense(squeezed, cards, keep), rtol=1e-12)

    def test_more_factors_than_einsum_takes(self):
        # 70 pair factors over 10 binary vertices: 1 024 cells
        names = [f"v{i}" for i in range(10)]
        cards = {v: 2 for v in names}
        rng = np.random.default_rng(4)
        pairs = [rng.choice(10, size=2, replace=False) for _ in range(70)]
        factors = [((names[i], names[j]), rng.random((2, 2)) + 0.5) for i, j in pairs]
        for keep in ([], ["v7", "v2"]):
            got = contract(factors, cards, keep)
            np.testing.assert_allclose(got, contract(factors[::-1], cards, keep), rtol=1e-12)
            np.testing.assert_allclose(got, contract_dense(factors, cards, keep), rtol=1e-12)

    def test_past_the_enumeration_limit_raises(self):
        names = [f"v{i}" for i in range(24)]  # 2**24 cells, past the limit
        assert 2**24 > ENUMERATION_LIMIT
        cards = {v: 2 for v in names}
        clique = [((u, v), np.full((2, 2), 0.5)) for i, u in enumerate(names) for v in names[:i]]
        for factors, keep in (([], names), (clique, [])):
            with pytest.raises(EnumerationLimitError):
                contract(factors, cards, keep)


@st.composite
def scope_sets(draw, past_dense):
    """``factor_sets`` with 1-4 scopes in place of ``keep``: each of up to 4
    of the factors' vertices or ``w``, a vertex of 1-3 states that no factor
    names, and past the dense rule one scope over every vertex, whose
    clique then has more than 2**14 cells."""
    factors, cards, _ = draw(factor_sets(past_dense))
    cards["w"] = draw(st.integers(1, 3))
    vertex = st.sampled_from(sorted(cards))
    scopes = draw(st.lists(st.lists(vertex, unique=True, max_size=4), min_size=1, max_size=4))
    if past_dense:
        scopes[0] = draw(st.permutations(sorted(cards)))
    return factors, cards, scopes


class TestContractEach:
    """``contract_each`` against the dense oracle, one table per scope, on
    both sides of the 2**14-cell rule for its cliques."""

    @pytest.mark.parametrize("past_dense", [False, True])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_dense_product(self, past_dense, data):
        factors, cards, scopes = data.draw(scope_sets(past_dense))
        got = contract_each(factors, cards, scopes)
        assert len(got) == len(scopes)
        for scope, table in zip(scopes, got):
            want = contract_dense(factors, cards, scope)
            assert isinstance(table, np.ndarray)
            assert table.shape == tuple(cards[v] for v in scope)
            np.testing.assert_allclose(table, want, rtol=1e-12, atol=0.0)
        # fresh arrays: no view of a factor's table or of another scope's
        tables = [t for _, t in factors] + got
        for i, table in enumerate(got):
            assert not any(np.shares_memory(table, t) for t in tables if t is not table)

    def test_scopes_that_share_no_factor(self):
        # two components and a vertex that no factor names: each scope's
        # table carries the other component's total
        cards = {"a": 2, "b": 3, "c": 2, "d": 3, "w": 2}
        rng = np.random.default_rng(5)
        factors = [
            (("a", "b"), rng.random((2, 3))), (("c", "d"), rng.random((2, 3))), ((), np.array(0.5))
        ]
        scopes = [["b"], ["d", "c"], ["a", "d"], ["w"], [], ["w", "a", "b"]]
        for scope, table in zip(scopes, contract_each(factors, cards, scopes)):
            np.testing.assert_allclose(table, contract_dense(factors, cards, scope), rtol=1e-12)

    def test_past_einsum_labels_and_operands(self, monkeypatch):
        # a scope over 60 one-state vertices and two of two states: a clique
        # of 62 labels; and 70 pair factors over 4 of 10 binary vertices,
        # the first clique's 40 or more of them past 31 operands
        names = [f"u{i}" for i in range(60)]
        rng = np.random.default_rng(3)
        wide = [
            (tuple(names[i : i + 10]) + (xy,), rng.random([1] * 10 + [2]))
            for i, xy in zip(range(0, 60, 10), "xyxyxy")
        ]
        wide_cards = {**{v: 1 for v in names}, "x": 2, "y": 2}
        wide_scopes = [names + ["x", "y"], ["y", "u3"], []]
        names = [f"v{i}" for i in range(10)]
        pairs = [rng.choice(4, size=2, replace=False) for _ in range(70)]
        many = [((names[i], names[j]), rng.random((2, 2)) + 0.5) for i, j in pairs]
        many += [((u, v), rng.random((2, 2)) + 0.5) for u, v in zip(names[3:], names[4:])]
        many_scopes = [names, ["v7", "v2"], []]
        contracted = []
        product = bn_module._product
        def recorded(*args):
            contracted.append(args)
            return product(*args)

        monkeypatch.setattr(bn_module, "_product", recorded)
        for factors, cards, scopes in (
            (wide, wide_cards, wide_scopes), (many, {v: 2 for v in names}, many_scopes)
        ):
            contracted.clear()
            for scope, table in zip(scopes, contract_each(factors, cards, scopes)):
                np.testing.assert_allclose(table, contract_dense(factors, cards, scope), rtol=1e-12)
            assert contracted  # some product went past einsum's limits

    def test_past_the_enumeration_limit_raises_before_any_table(self, monkeypatch):
        # a complete graph of pair factors over 24 binary vertices: its first
        # clique has 2**24 cells, past the limit; a chain a, a-b, b-v0 hung
        # on it gives contract two small cliques to take first, as it does
        # below a root clique of all 24 kept vertices
        names = [f"v{i}" for i in range(24)]
        cards = {v: 2 for v in names + ["a", "b"]}
        clique = [((u, v), np.full((2, 2), 0.5)) for i, u in enumerate(names) for v in names[:i]]
        chain = [(("a",), np.full(2, 0.5)), (("a", "b"), np.full((2, 2), 0.5))]
        chain.append((("b", "v0"), np.full((2, 2), 0.5)))

        def formed(*args, **kwargs):
            raise AssertionError("a table was formed")

        monkeypatch.setattr(bn_module, "_einsum", formed)
        monkeypatch.setattr(bn_module, "_product", formed)
        with pytest.raises(EnumerationLimitError):
            contract_each(clique, cards, [["v0"], ["v3", "v5"]])
        for factors, keep in ((chain + clique, []), (chain + clique, ["v3"]), (chain, names)):
            with pytest.raises(EnumerationLimitError):
                contract(factors, cards, keep)

    def test_a_vertex_in_every_scope_is_the_root(self):
        # as the influence function's stacked axis: s lies in every scope
        # and in one factor on a chain of 10 ternary vertices, 3**10 * 2
        # cells in all, so s is the root clique and is never eliminated
        names = [f"v{i}" for i in range(10)]
        cards = {**{v: 3 for v in names}, "s": 2}
        assert math.prod(cards.values()) > 2**14
        rng = np.random.default_rng(6)
        factors = [((u, v), rng.random((3, 3))) for u, v in zip(names, names[1:])]
        factors.append((("s", "v2", "v7"), rng.random((2, 3, 3))))
        scopes = [["s", "v0", "v1"], ["v5", "s"], ["s", "v9", "v8", "v6"], ["s"]]
        for scope, table in zip(scopes, contract_each(factors, cards, scopes)):
            np.testing.assert_allclose(table, contract_dense(factors, cards, scope), rtol=1e-12)


class TestRandomLaw:
    def test_deterministic(self):
        g = golden("motivating")
        cards = {v: 2 for v in g.vertices}
        b1 = random_law(g, cards, seed=5)
        b2 = random_law(g, cards, seed=5)
        for v in g.vertices:
            assert np.array_equal(b1.cpts[v], b2.cpts[v])

    def test_floor_respected(self):
        g = golden("motivating")
        bn = random_law(g, {v: 3 for v in g.vertices}, seed=9, epsilon=0.05)
        for v in g.vertices:
            assert bn.cpts[v].min() >= 0.05 - 1e-12

    def test_infeasible_epsilon(self):
        g = golden("trivial")
        with pytest.raises(ValueError):
            random_law(g, {"A": 2, "Y": 2}, seed=0, epsilon=0.6)

    def test_dsep_implied_independences_hold(self, rng):
        # every d-separation statement holds exactly in the generated law
        for _ in range(5):
            g = random_dag(rng, 5, 0.4, ensure_assumption=True)
            cards = {v: int(rng.integers(2, 4)) for v in g.vertices}
            bn = random_law(g, cards, seed=int(rng.integers(10**6)), epsilon=0.02)
            table = joint_table(bn)
            labels = g.vertices
            for _ in range(20):
                idx = rng.permutation(len(labels))
                x, y = labels[idx[0]], labels[idx[1]]
                z = [labels[i] for i in idx[2 : 2 + int(rng.integers(0, 3))]]
                if not d_separated(g, {x}, {y}, set(z)):
                    continue
                axes = {v: i for i, v in enumerate(labels)}
                keep = sorted([axes[x], axes[y]] + [axes[v] for v in z])
                marg = table.sum(axis=tuple(i for i in range(len(labels)) if i not in keep))
                names = [labels[i] for i in keep]
                ix, iy = names.index(x), names.index(y)
                iz = [names.index(v) for v in z]
                # check P(x,y|z) = P(x|z) P(y|z) cellwise
                pz = marg.sum(axis=tuple(i for i in range(len(names)) if i not in iz), keepdims=True)
                pxz = marg.sum(axis=(iy,), keepdims=True)
                pyz = marg.sum(axis=(ix,), keepdims=True)
                lhs = marg * np.where(pz > 0, pz, 1.0)
                rhs = pxz * pyz
                assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestSample:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sample(coin_pair(), 0, seed=1)

    def test_reproducible_and_seed_sensitive(self):
        bn = biased_chain()
        d1 = sample(bn, 500, seed=11)
        d2 = sample(bn, 500, seed=11)
        d3 = sample(bn, 500, seed=12)
        assert np.array_equal(d1.rows, d2.rows)
        assert not np.array_equal(d1.rows, d3.rows)

    def test_marginal_concentration(self):
        ds = sample(coin_pair(), 100_000, seed=3)
        assert abs(ds.column("A").mean() - 0.5) < 0.01

    def test_conditional_frequencies(self):
        bn = biased_chain()
        ds = sample(bn, 200_000, seed=4)
        a = ds.column("A")
        y = ds.column("Y")
        assert abs(y[a == 1].mean() - 0.7) < 0.01

    def test_derive_seed_distinct(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000


def assert_same_stream(bn: DiscreteBn, n: int, seeds) -> None:
    for seed in seeds:
        rows = sample(bn, n, seed).rows
        assert np.array_equal(rows, sample_gathered(bn, n, seed).rows), seed


class TestSampleStream:
    """``sample`` draws exactly the rows of the gather-and-compare sampler."""

    @pytest.mark.parametrize("design, n", [("a", 10_000), ("b", 25_000)])
    def test_benchmark_designs(self, design, n):
        cfg = SimConfig(design, n=n, replications=1, seed=0, **DEFAULTS[design])
        assert_same_stream(build_benchmark_dgp(cfg), n, range(5))

    @pytest.mark.parametrize("name", LAW_SUITE)
    def test_law_suite(self, name, rng):
        g = golden(name)
        cards = {v: int(rng.integers(2, 5)) for v in g.vertices}
        bn = random_law(g, cards, seed=int(rng.integers(10**6)), epsilon=0.02)
        assert_same_stream(bn, 3000, (0, 1, 2))

    def test_zero_probability_states_never_drawn(self):
        g = golden("motivating_slim")
        cards = {v: 4 for v in g.vertices}
        bn = random_law(g, cards, seed=3, epsilon=0.02)
        for i, v in enumerate(g.vertices):
            table = np.array(bn.cpts[v])
            zero = i % 4  # the first, an inner or the last state
            table[..., zero] = 0.0
            table[..., (zero + 1) % 4] += 1.0 - table.sum(axis=-1)
            bn = bn.with_cpt(v, table)
        assert_same_stream(bn, 20_000, (0, 1, 2))
        ds = sample(bn, 20_000, seed=4)
        for v in g.vertices:
            idx = tuple(ds.column(p) for p in bn.parent_order(v)) + (ds.column(v),)
            assert np.all(bn.cpts[v][idx] > 0.0), v

    def test_cardinality_one(self):
        g = Dag(("C", "A", "Y"), (("C", "A"), ("C", "Y"), ("A", "Y")), "A", "Y")
        cards = {"C": 1, "A": 3, "Y": 2}
        bn = random_law(g, cards, seed=2, epsilon=0.05)
        assert_same_stream(bn, 5000, (0, 1))
        assert np.all(sample(bn, 5000, seed=0).column("C") == 0)

    def test_row_sum_below_one_draws_the_last_state(self):
        # construction refuses a row that sums to 0.6, so it is put in past
        # validation: u in [0.6, 1) is left to the clamp, which draws the
        # last state, and the stream is still the gathering sampler's
        g = golden("trivial")
        y = np.array([[0.3, 0.3, 0.4], [0.2, 0.2, 0.6]])
        bn = DiscreteBn(g, {"A": 2, "Y": 3}, {"A": np.array([0.5, 0.5]), "Y": y})
        short = np.array([[0.3, 0.3, 0.4], [0.2, 0.2, 0.2]])
        object.__setattr__(bn, "cpts", {**bn.cpts, "Y": short})
        assert_same_stream(bn, 20_000, (0, 1, 2))
        ds = sample(bn, 20_000, seed=0)
        share = (ds.column("Y")[ds.column("A") == 1] == 2).mean()
        assert abs(share - 0.6) < 0.02

    def test_row_sum_far_below_one_is_refused(self):
        g = golden("trivial")
        y = np.array([[0.3, 0.3, 0.4], [0.2, 0.2, 0.2]])
        with pytest.raises(NormalizationError, match=r"parent state \(1,\) sums to 0.6"):
            DiscreteBn(g, {"A": 2, "Y": 3}, {"A": np.array([0.5, 0.5]), "Y": y})

    @pytest.mark.parametrize("root, child", [(12, 3), (13, 4), (8, 9), (9, 8)])
    def test_both_sides_of_the_count_limits(self, root, child):
        # a root counts its cumulative entries up to 12 states and a vertex
        # with parents up to 3; past those limits each bisects
        g = Dag(("C", "A", "Y"), (("C", "A"), ("C", "Y"), ("A", "Y")), "A", "Y")
        bn = random_law(g, {"C": root, "A": child, "Y": 2}, seed=root * child, epsilon=0.01)
        assert_same_stream(bn, 20_000, (0, 1, 2))

    def test_every_column_of_a_sample_is_contiguous(self):
        g = golden("motivating_slim")
        ds = sample(random_law(g, {v: 3 for v in g.vertices}, seed=1), 1000, seed=2)
        assert ds.rows.dtype == np.int64 and ds.rows.shape == (1000, len(g.vertices))
        assert all(ds.column(v).flags.c_contiguous for v in ds.columns)

    def test_parents_declared_out_of_topological_order(self):
        g = Dag(("Y", "B", "A"), (("B", "Y"), ("A", "Y"), ("A", "B")), "A", "Y")
        assert g.parent_list("Y") == ("A", "B")
        bn = random_law(g, {"A": 4, "B": 3, "Y": 2}, seed=6, epsilon=0.02)
        assert_same_stream(bn, 5000, (0, 1, 2))


class TestOneSampler:
    """``bn._sampler`` forms a network's tables once; each of its draws is
    the gathering sampler's stream for its (n, seed), in any order, and so
    is each call of ``sample``, which keeps one sampler on the network."""

    # every way a vertex draws: U and Z have one state (Z with a parent),
    # R is a counted root, S a bisected root, A a counted child and Y a
    # bisected child
    GRAPH = Dag(
        ("U", "R", "S", "A", "Z", "Y"),
        (("R", "A"), ("S", "A"), ("A", "Z"), ("A", "Y"), ("U", "Y"), ("S", "Y")),
        "A",
        "Y",
    )

    @pytest.mark.parametrize("law_seed", [0, 1, 2, 3])
    def test_interleaved_draws_are_the_gathering_sampler(self, law_seed):
        rng = np.random.default_rng(law_seed)
        cards = {
            "U": 1,
            "R": int(rng.integers(2, 13)),
            "S": int(rng.integers(13, 40)),
            "A": int(rng.integers(2, 4)),
            "Z": 1,
            "Y": int(rng.integers(4, 20)),
        }
        bn = random_law(self.GRAPH, cards, seed=law_seed, epsilon=0.001)
        draw = bn_module._sampler(bn)
        for n, seed in [(500, 0), (1, 7), (3000, 1), (500, 0), (2, 7), (3000, 2), (1, 7)]:
            rows = draw(n, seed).rows
            assert np.array_equal(rows, sample_gathered(bn, n, seed).rows), (n, seed)
            assert np.array_equal(rows, sample(bn, n, seed).rows), (n, seed)

    def test_draws_refuse_zero_rows(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            bn_module._sampler(coin_pair())(0, 1)


class TestSerialization:
    def test_bn_json_refuses_a_table_of_the_wrong_size(self):
        # cards.Y edited from 3 to 30: the table still holds 2 x 3 entries
        g = Dag(("A", "Y"), (("A", "Y"),), "A", "Y")
        bn = random_law(g, {"A": 2, "Y": 3}, seed=1)
        payload = bn_to_json(bn)
        payload["cards"]["Y"] = 30
        with pytest.raises(GraphError, match=r"cpts\.Y\.table has 6 entries, expected 60"):
            bn_from_json(payload)

    @pytest.mark.parametrize("card", [0, -1, -3])
    def test_bn_json_refuses_a_card_below_one(self, card):
        # -1 and -3 would reshape, or be inferred by numpy, were they let through
        g = Dag(("A", "Y"), (("A", "Y"),), "A", "Y")
        payload = bn_to_json(random_law(g, {"A": 2, "Y": 3}, seed=1))
        payload["cards"]["Y"] = card
        with pytest.raises(GraphError, match=rf"cards\.Y must be at least 1, got {card}"):
            bn_from_json(payload)

    def test_bn_json_round_trip(self, rng):
        g = golden("motivating_slim")
        cards = {v: int(rng.integers(2, 4)) for v in g.vertices}
        bn = random_law(g, cards, seed=8, epsilon=0.02)
        back = bn_from_json(bn_to_json(bn))
        assert back.graph == bn.graph
        assert back.cards == bn.cards
        for v in g.vertices:
            assert np.allclose(back.cpts[v], bn.cpts[v])

    def test_bn_json_rejects_unsorted_parents(self):
        bn = biased_chain()
        payload = bn_to_json(bn)
        payload["cpts"]["Y"]["parents"] = ["Y"]
        with pytest.raises(Exception):
            bn_from_json(payload)

    def test_dataset_csv_round_trip(self, tmp_path):
        bn = biased_chain()
        ds = sample(bn, 100, seed=1)
        path = tmp_path / "data.csv"
        dataset_to_csv(ds, str(path))
        back = dataset_from_csv(str(path))
        assert back.columns == ds.columns
        assert np.array_equal(back.rows, ds.rows)

    def test_dataset_validates_cards(self):
        with pytest.raises(ValueError):
            Dataset(("A",), np.array([[3]]), {"A": 2})

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0.7, 1.9]], "state 0.7 in column 'A'"),
            (np.array([[0.0, np.nan]]), "state nan in column 'Y'"),
            (np.array([[np.inf, 0.0]]), "state inf in column 'A'"),
            (np.array([[0.0, 2.0**63]]), "state 9.223372036854776e+18 in column 'Y'"),
        ],
        ids=["fraction", "nan", "inf", "past-64-bits"],
    )
    def test_dataset_refuses_non_integer_states(self, rows, message):
        with pytest.raises(ValueError, match=re.escape(message) + " is not a 64-bit integer"):
            Dataset(("A", "Y"), rows)

    def test_dataset_accepts_whole_floats_and_keeps_int64_rows(self):
        ds = Dataset(("A", "Y"), np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert ds.rows.dtype == np.int64 and ds.rows.tolist() == [[0, 1], [2, 0]]
        rows = np.array([[0, 1], [1, 0]])
        assert Dataset(("A", "Y"), rows).rows is rows

    @pytest.mark.parametrize("rows", [np.zeros((3, 1)), np.zeros(2)], ids=["width", "ndim"])
    def test_dataset_rejects_rows_of_the_wrong_shape(self, rows):
        with pytest.raises(ValueError, match=r"rows must be an \(n, len\(columns\)\) integer array"):
            Dataset(("A", "B"), rows)
