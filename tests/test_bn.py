"""Discrete networks: validation, enumeration, generation, sampling, io."""

import numpy as np
import pytest

from causal_reduce.bn import (
    Dataset,
    DiscreteBn,
    EnumerationLimitError,
    NormalizationError,
    bn_from_json,
    bn_to_json,
    dataset_from_csv,
    dataset_to_csv,
    derive_seed,
    joint_table,
    marginal,
    random_law,
    sample,
    validate,
)
from causal_reduce.graph import Dag, d_separated
from causal_reduce.simulate import DEFAULTS, SimConfig, build_benchmark_dgp
from conftest import LAW_SUITE, golden
from oracles import joint_prob_loop, random_dag, sample_gathered


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
        assert validate(coin_pair()) is None

    def test_normalization_error(self):
        g = golden("trivial")
        with pytest.raises(NormalizationError):
            validate(
                DiscreteBn(
                    g,
                    {"A": 2, "Y": 2},
                    {
                        "A": np.array([0.5, 0.4]),
                        "Y": np.array([[0.5, 0.5], [0.5, 0.5]]),
                    },
                )
            )

    def test_shape_checked_at_construction(self):
        g = golden("trivial")
        with pytest.raises(Exception):
            DiscreteBn(
                g, {"A": 2, "Y": 2}, {"A": np.array([0.5, 0.5]), "Y": np.array([0.5, 0.5])}
            )


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
        validate(bn)

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
        validate(bn)
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

    def test_parents_declared_out_of_topological_order(self):
        g = Dag(("Y", "B", "A"), (("B", "Y"), ("A", "Y"), ("A", "B")), "A", "Y")
        assert g.parent_list("Y") == ("A", "B")
        bn = random_law(g, {"A": 4, "B": 3, "Y": 2}, seed=6, epsilon=0.02)
        assert_same_stream(bn, 5000, (0, 1, 2))


class TestSerialization:
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
        back = dataset_from_csv(str(path), cards=dict(bn.cards))
        assert back.columns == ds.columns
        assert np.array_equal(back.rows, ds.rows)

    def test_dataset_validates_cards(self):
        with pytest.raises(ValueError):
            Dataset(("A",), np.array([[3]]), {"A": 2})
