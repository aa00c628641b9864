"""Discrete networks: validation, enumeration, generation, sampling, io."""

import numpy as np
import pytest

from causal_reduce.bn import (
    Dataset,
    DiscreteBn,
    EnumerationLimitError,
    NormalizationError,
    PositivityError,
    ZeroConditioningEvent,
    bn_from_json,
    bn_to_json,
    cond_expectation,
    dataset_from_csv,
    dataset_to_csv,
    derive_seed,
    joint_prob,
    joint_table,
    marginal,
    random_law,
    sample,
    validate,
)
from causal_reduce.graph import Dag, d_separated, parse_graph
from conftest import golden
from oracles import cond_expectation_loop, joint_prob_loop, random_dag


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
    def test_certificate(self):
        cert = validate(coin_pair())
        assert cert.rows_checked == 3

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

    def test_positivity_error(self):
        g = parse_graph("!treatment A\n!outcome Y\nW4 -> A\nA -> Y\nW4 -> Y")
        cpts = {
            "W4": np.array([0.5, 0.5]),
            "A": np.array([[1.0, 0.0], [0.5, 0.5]]),
            "Y": np.array([[[0.5, 0.5]] * 2] * 2),
        }
        bn = DiscreteBn(g, {"W4": 2, "A": 2, "Y": 2}, cpts)
        validate(bn)
        with pytest.raises(PositivityError):
            validate(bn, require_positivity_for=(1, 0.01))

    def test_shape_checked_at_construction(self):
        g = golden("trivial")
        with pytest.raises(Exception):
            DiscreteBn(
                g, {"A": 2, "Y": 2}, {"A": np.array([0.5, 0.5]), "Y": np.array([0.5, 0.5])}
            )


class TestJointProb:
    def test_independent_coins(self):
        assert joint_prob(coin_pair(), (1, 1)) == pytest.approx(0.25)

    def test_chain_product(self):
        assert joint_prob(biased_chain(), (1, 1)) == pytest.approx(0.35)

    def test_out_of_range(self):
        with pytest.raises(Exception):
            joint_prob(coin_pair(), (2, 0))

    def test_sums_to_one_and_matches_loop(self, rng):
        for _ in range(10):
            g = random_dag(rng, 5, 0.5, ensure_assumption=True)
            cards = {v: int(rng.integers(2, 4)) for v in g.vertices}
            bn = random_law(g, cards, seed=int(rng.integers(10**6)), epsilon=0.02)
            table = joint_table(bn)
            assert abs(float(table.sum()) - 1.0) <= 1e-10
            states = tuple(int(rng.integers(cards[v])) for v in g.vertices)
            assignment = dict(zip(g.vertices, states))
            assert joint_prob(bn, states) == pytest.approx(
                joint_prob_loop(bn, assignment)
            )
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


class TestCondExpectation:
    def test_fair_coin(self):
        assert cond_expectation(coin_pair(), ["Y"], lambda y: y, {}) == pytest.approx(
            0.5
        )

    def test_chain_conditional(self):
        assert cond_expectation(
            biased_chain(), ["Y"], lambda y: y, {"A": 1}
        ) == pytest.approx(0.7)

    def test_zero_conditioning(self):
        g = golden("trivial")
        bn = DiscreteBn(
            g,
            {"A": 2, "Y": 2},
            {"A": np.array([1.0, 0.0]), "Y": np.array([[0.5, 0.5], [0.5, 0.5]])},
        )
        with pytest.raises(ZeroConditioningEvent):
            cond_expectation(bn, ["Y"], lambda y: y, {"A": 1})

    def test_matches_loop_oracle(self, rng):
        for _ in range(10):
            g = random_dag(rng, 5, 0.5, ensure_assumption=True)
            cards = {v: int(rng.integers(2, 4)) for v in g.vertices}
            bn = random_law(g, cards, seed=int(rng.integers(10**6)), epsilon=0.02)
            labels = list(g.vertices)
            rng.shuffle(labels)
            f_vars = labels[:2]
            given = {labels[2]: int(rng.integers(cards[labels[2]]))}
            f = lambda x, y: float(x * 2 + y)
            got = cond_expectation(bn, f_vars, f, given)
            want = cond_expectation_loop(bn, f_vars, f, given)
            assert got == pytest.approx(want, abs=1e-12)


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
