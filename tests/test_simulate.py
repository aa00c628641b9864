"""Simulation harness: the data-generating network and the replication loop."""

import math

import numpy as np
import pytest

from causal_reduce.bn import EnumerationLimitError, derive_seed, sample
from causal_reduce.functionals import EmptyCellError, plugin_adjustment, plugin_g
from causal_reduce import simulate
from causal_reduce.reduction import reduce
from causal_reduce.simulate import (
    SimConfig,
    build_benchmark_dgp,
    run_simulation,
    sim_table_to_dict,
)
from conftest import golden


def small_cfg(**kw):
    base = dict(setting="a", m=5, k=50, n=2000, replications=8, seed=3)
    base.update(kw)
    return SimConfig(**base)


class TestConfig:
    def test_rejects_bad_setting(self):
        with pytest.raises(ValueError):
            SimConfig("c", 5, 50, 100, 10, 0)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            SimConfig("a", 5, 4, 100, 10, 0)
        # k = 5 leaves the non-special mixture without support
        with pytest.raises(ValueError):
            SimConfig("a", 5, 5, 100, 10, 0)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            SimConfig("a", 1, 50, 100, 10, 0)

    @pytest.mark.parametrize("m, k", [(20_000, 50), (450, 50)])
    def test_rejects_a_mixing_table_past_the_guard(self, m, k):
        # the (W2, W3, W4) table of m * m * k cells is refused before
        # build_benchmark_dgp would allocate it
        cells = rf"m={m}, k={k} needs a \(W2, W3, W4\) mixing table of m\*m\*k = {m * m * k} cells"
        with pytest.raises(EnumerationLimitError, match=cells):
            SimConfig("a", m, k, 100, 10, 0)
        SimConfig("a", 1000, 10, 100, 10, 0)  # 10**7 cells: at the guard


class TestDgp:
    def test_rows_normalized(self):
        bn = build_benchmark_dgp(small_cfg())
        for v, table in bn.cpts.items():
            assert np.all(np.abs(table.sum(axis=-1) - 1.0) <= 1e-12), v

    def test_special_state_probability(self):
        bn = build_benchmark_dgp(small_cfg())
        assert bn.cpts["O1"][3, 1] == pytest.approx(0.99)
        assert bn.cpts["O1"][7, 1] == pytest.approx(0.01)

    def test_outcome_logistic_values(self):
        bn = build_benchmark_dgp(small_cfg())
        # axes of the outcome CPT: (adjustment covariate, treatment, outcome)
        assert bn.cpts["Y"][1, 1, 1] == pytest.approx(1 / (1 + math.exp(-7)))
        assert bn.cpts["Y"][0, 1, 1] == pytest.approx(1 / (1 + math.exp(7)))
        assert bn.cpts["Y"][1, 0, 1] == pytest.approx(1 / (1 + math.exp(-2.5)))

    def test_mixing_rows(self):
        bn = build_benchmark_dgp(small_cfg())
        w4 = bn.cpts["W4"]
        assert np.allclose(w4[2, 2, :5], 0.2)
        assert np.allclose(w4[2, 2, 5:], 0.0)
        assert np.allclose(w4[0, 1, :5], 0.0)
        assert w4[0, 1, 5:].sum() == pytest.approx(1.0)

    def test_graph_matches_design(self):
        bn = build_benchmark_dgp(small_cfg())
        assert bn.graph == golden("motivating_slim")
        red = reduce(bn.graph).output
        assert red == golden("motivating_reduced")


class TestRun:
    def test_deterministic(self):
        cfg = small_cfg()
        t1 = run_simulation(cfg)
        t2 = run_simulation(cfg)
        assert t1.rows == t2.rows

    def test_seed_sensitivity(self):
        assert run_simulation(small_cfg(seed=3)).rows != run_simulation(
            small_cfg(seed=4)
        ).rows

    def test_single_replication_flags_se(self):
        table = run_simulation(small_cfg(replications=1))
        assert all(r.monte_carlo_se is None for r in table.rows)

    def test_estimator_names_and_json(self):
        cfg = small_cfg()
        table = run_simulation(cfg)
        payload = sim_table_to_dict(cfg, table)
        assert [r["estimator"] for r in payload["rows"]] == [
            "adjustment",
            "g_plugin_full",
            "g_plugin_reduced",
        ]
        assert all(r["n_times_variance"] >= 0 for r in payload["rows"])

    def test_empty_cell_reports_replication(self):
        # tiny n cannot cover all mixing-covariate levels
        cfg = small_cfg(n=20, replications=2)
        with pytest.raises(EmptyCellError) as err:
            run_simulation(cfg)
        assert "replication" in str(err.value)
        assert err.value.cell == err.value.__cause__.cell

    def test_giving_up_names_no_cell(self):
        # no replication of five rows covers the 50 x 50 covariate pairs
        cfg = SimConfig("b", m=50, k=10, n=5, replications=1, seed=0)
        with pytest.raises(EmptyCellError) as err:
            run_simulation(cfg, on_empty="skip")
        assert str(err.value) == "gave up after skipping 11 replications"
        assert err.value.cell is None

    def test_skip_mode_counts_and_completes(self):
        # roughly half the replications at this n miss a covariate pair
        cfg = small_cfg(n=90, replications=4)
        with pytest.raises(EmptyCellError):
            run_simulation(cfg)
        table = run_simulation(cfg, on_empty="skip")
        assert len(table.rows) == 3
        assert table.skipped_replications >= 1
        # deterministic under skipping too
        again = run_simulation(cfg, on_empty="skip")
        assert again.rows == table.rows

    def test_skip_mode_gives_up_eventually(self):
        cfg = small_cfg(n=20, replications=2)
        with pytest.raises(EmptyCellError):
            run_simulation(cfg, on_empty="skip")

    def test_empty_cell_message_is_pinned(self):
        with pytest.raises(EmptyCellError) as err:
            run_simulation(small_cfg(n=20, replications=2))
        assert str(err.value) == (
            "replication 0: no observations at needed cell ('W4', (0, 0)): "
            "p(W4 | W2, W3) at A=1 needs a null event (cell ('W4', (0, 0)))"
        )
        assert err.value.cell == ("W4", (0, 0))

    def test_rejects_an_unknown_on_empty(self):
        with pytest.raises(ValueError, match="on_empty must be 'error' or 'skip'"):
            run_simulation(small_cfg(), on_empty="ignore")

    def test_keep_estimates(self):
        table = run_simulation(small_cfg(), keep_estimates=True)
        assert set(table.estimates) == {
            "adjustment",
            "g_plugin_full",
            "g_plugin_reduced",
        }
        assert all(len(v) == 8 for v in table.estimates.values())


# Estimates recorded from the release before the plugins shared the exact
# kernels; the g-formula plugins reproduce them bit for bit and the
# adjustment estimator to rounding.
GOLDEN_RUNS = {
    "a": (
        SimConfig("a", m=5, k=50, n=90, replications=20, seed=5),
        14,
        {
            "adjustment": [
                0.12222222222222222, 0.18888888888888888, 0.26718749999999997,
                0.2777777777777778, 0.2111111111111111, 0.23333333333333334,
                0.2777777777777778, 0.16666666666666666, 0.2, 0.24444444444444444,
                0.1111111111111111, 0.26666666666666666, 0.2111111111111111,
                0.30181818181818176, 0.2222222222222222, 0.25555555555555554,
                0.26666666666666666, 0.25725047080979285, 0.24444444444444444,
                0.17777777777777778,
            ],
            "g_plugin_full": [
                0.17791495198902604, 0.20358024691358023, 0.21213541666666666,
                0.21637873799725654, 0.21750617283950618, 0.2272312757201646,
                0.24393004115226335, 0.19518861454046638, 0.21530864197530863,
                0.2040740740740741, 0.2139779541446208, 0.20518518518518516,
                0.2025925925925926, 0.22789494949494948, 0.21528120713305893,
                0.20246913580246914, 0.20691495198902607, 0.22278840296668295,
                0.20370370370370366, 0.20037037037037037,
            ],
            "g_plugin_reduced": [
                0.1776131687242798, 0.20358024691358026, 0.21213541666666666,
                0.2019753086419753, 0.20916049382716048, 0.23493827160493827,
                0.24425925925925926, 0.19621399176954732, 0.22098765432098766,
                0.2040740740740741, 0.2187830687830688, 0.20518518518518516,
                0.2025925925925926, 0.23442424242424242, 0.221358024691358,
                0.20246913580246914, 0.20602880658436212, 0.22166645741786983,
                0.20370370370370366, 0.20037037037037037,
            ],
        },
    ),
    "b": (
        SimConfig("b", m=50, k=10, n=25_000, replications=30, seed=1),
        5,
        {
            "adjustment": [
                0.03130779408807561, 0.032241918057663126, 0.030842198337051308,
                0.030456892911535083, 0.03116397447584321, 0.03074327848176526,
                0.030873390593047036, 0.03150736989591673, 0.029612138710764516,
                0.03039860283542223, 0.03047207812023192, 0.029013537898801057,
                0.029377353205961788, 0.02916423785089043, 0.029305351657235246,
                0.031003836389280677, 0.03123972777892349, 0.03215041478356935,
                0.03096766320927395, 0.031293838924107274, 0.029642266819058287,
                0.0313002347256305, 0.032291205802357205, 0.030320065952184668,
                0.02979711557993094, 0.031251148723084626, 0.02926578101304216,
                0.031533883594281824, 0.03057309608540925, 0.03182924160457283,
            ],
            "g_plugin_full": [
                0.030767415438265104, 0.031178316656681724, 0.030377057059635636,
                0.03080840114817484, 0.03061200259653625, 0.031450750039405076,
                0.029956732269523636, 0.03086884289460732, 0.030353927269967593,
                0.030478398827337744, 0.029851263468138843, 0.028395368925199165,
                0.031096609151522937, 0.030369673689691484, 0.02911524648936594,
                0.0312016870166099, 0.03128268797202616, 0.0312961216583612,
                0.030262067715768934, 0.030872780293936856, 0.03128147387502762,
                0.029758684616928346, 0.03142927528695888, 0.030933904453640793,
                0.030192133182183955, 0.030782379284751502, 0.03009631025165273,
                0.030668450634550686, 0.02932056041711697, 0.03140274311772424,
            ],
            "g_plugin_reduced": [
                0.030751710010757907, 0.031208151409052837, 0.030141464364141272,
                0.0309975896684635, 0.030449480898494627, 0.03131271688314068,
                0.029847075106236277, 0.030833131540704595, 0.030349695790364336,
                0.030582670538100806, 0.030134369255341423, 0.028150059983693146,
                0.031150904482477416, 0.0300111939904534, 0.02864141918638957,
                0.031312523525478614, 0.031210841758040335, 0.031023581096776366,
                0.030268052622443954, 0.030517555737027746, 0.031014348954563696,
                0.029607444358946744, 0.031314803139303085, 0.031065012680558116,
                0.030062776662140037, 0.030771037630424415, 0.030059722956591307,
                0.030540338378827435, 0.029596490578709597, 0.03128497521956548,
            ],
        },
    ),
}


@pytest.mark.parametrize("design", sorted(GOLDEN_RUNS))
def test_skip_mode_estimates_are_pinned(design):
    cfg, skipped, estimates = GOLDEN_RUNS[design]
    table = run_simulation(cfg, keep_estimates=True, on_empty="skip")
    assert table.skipped_replications == skipped
    assert set(table.estimates) == set(estimates)
    for name, expected in estimates.items():
        np.testing.assert_allclose(table.estimates[name], expected, rtol=0, atol=1e-12)


def test_skips_name_their_seed_and_empty_cell():
    cfg, skipped, _ = GOLDEN_RUNS["a"]
    table = run_simulation(cfg, on_empty="skip")
    assert len(table.skips) == skipped == 14
    bn = build_benchmark_dgp(cfg)
    g_reduced = reduce(bn.graph).output
    for skip in table.skips:
        assert skip.seed == derive_seed(cfg.seed, skip.index)
        ds = sample(bn, cfg.n, skip.seed)
        with pytest.raises(EmptyCellError) as err:
            plugin_g(ds, bn.graph, 1)
            plugin_g(ds, g_reduced, 1)
            plugin_adjustment(ds, bn.graph, {"O1"}, 1)
        assert err.value.cell == skip.cell
    payload = sim_table_to_dict(cfg, table)
    assert payload["skipped_replications"] == 14
    assert payload["skips"] == [
        {
            "index": skip.index,
            "seed": skip.seed,
            "cell": {"event": skip.cell[0], "states": list(skip.cell[1])},
        }
        for skip in table.skips
    ]


def public_replications(cfg):
    """``run_simulation``'s loop in skip mode, written with the public
    ``sample``, ``plugin_g`` and ``plugin_adjustment`` on a network and
    graphs made anew for each replication, so that no call reads a kept
    sampler or plan: the estimates and the skipped replications as (index,
    seed, cell)."""
    values = {"adjustment": [], "g_plugin_full": [], "g_plugin_reduced": []}
    skips, rep = [], 0
    while len(values["adjustment"]) < cfg.replications:
        bn = build_benchmark_dgp(cfg)
        g_reduced = reduce(bn.graph).output
        seed = derive_seed(cfg.seed, rep)
        ds = sample(bn, cfg.n, seed)
        try:
            full = plugin_g(ds, bn.graph, 1)
            reduced = plugin_g(ds, g_reduced, 1)
            adjustment = plugin_adjustment(ds, bn.graph, {"O1"}, 1)
        except EmptyCellError as exc:
            skips.append((rep, seed, exc.cell))
        else:
            values["g_plugin_full"].append(full)
            values["g_plugin_reduced"].append(reduced)
            values["adjustment"].append(adjustment)
        rep += 1
    return {k: np.array(v) for k, v in values.items()}, skips


@pytest.mark.parametrize(
    "cfg",
    [
        # the labels' 10 000 cells are counted in one table
        SimConfig("a", m=5, k=50, n=90, replications=6, seed=11),
        SimConfig("a", m=5, k=50, n=2000, replications=3, seed=12),
        # 72 000 and 25 600 cells: each family is counted on its own
        SimConfig("b", m=30, k=10, n=6000, replications=4, seed=1),
        SimConfig("b", m=20, k=8, n=2500, replications=4, seed=1),
    ],
    ids=["a-skips", "a", "b-skips", "b-small"],
)
def test_planned_replications_are_the_public_functions(cfg):
    # run_simulation's replications read the sampler and plans kept by the
    # first; each estimate and each skip must still be that of calls that
    # plan anew, to the bit
    table = run_simulation(cfg, keep_estimates=True, on_empty="skip")
    values, skips = public_replications(cfg)
    assert [(s.index, s.seed, s.cell) for s in table.skips] == skips
    assert set(table.estimates) == set(values)
    for name, x in values.items():
        assert table.estimates[name].tobytes() == x.tobytes(), name


def test_each_replication_calls_the_public_functions(monkeypatch):
    # the replications draw and estimate through sample, plugin_g and
    # plugin_adjustment themselves, as a wrapper of those names sees them
    calls = []

    def counted(name, fn):
        def call(*args, **kw):
            calls.append(name)
            return fn(*args, **kw)

        monkeypatch.setattr(simulate, name, call)

    for name, fn in (("sample", sample), ("plugin_g", plugin_g), ("plugin_adjustment", plugin_adjustment)):
        counted(name, fn)
    run_simulation(SimConfig("a", m=5, k=50, n=2000, replications=3, seed=12))
    assert calls == ["sample", "plugin_g", "plugin_g", "plugin_adjustment"] * 3
