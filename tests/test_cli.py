"""Command-line surface: subcommands, file formats, exit codes."""

import json

import numpy as np
import pytest

from causal_reduce.bn import bn_to_json, random_law, sample, save_bn, dataset_to_csv
from causal_reduce.cli import main
from causal_reduce.functionals import plugin_adjustment, plugin_g
from causal_reduce.graph import Dag, format_graph, parse_graph
from causal_reduce.reduction import reduce
from conftest import COVARIATE_WEB_TEXT, MOTIVATING_TEXT, MOTIVATING_FLIPPED_TEXT, golden


@pytest.fixture()
def motivating_file(tmp_path):
    path = tmp_path / "motivating.graph"
    path.write_text(MOTIVATING_TEXT)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTaxonomy:
    def test_json_keys_and_content(self, capsys, motivating_file):
        code, out, _ = run(capsys, ["taxonomy", "--graph", motivating_file])
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["N", "I", "W", "M", "O", "O_min"]
        assert payload["I"] == ["I1"]
        assert payload["O"] == ["O1"]
        assert payload["O_min"] == ["O1"]

    def test_json_to_file(self, capsys, motivating_file, tmp_path):
        dest = tmp_path / "tax.json"
        code, out, _ = run(
            capsys, ["taxonomy", "--graph", motivating_file, "--json", str(dest)]
        )
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["I"] == ["I1"]


class TestCheck:
    def test_verdicts(self, capsys, motivating_file):
        code, out, _ = run(capsys, ["check", "--graph", motivating_file])
        assert code == 0
        verdicts = {v["vertex"]: v for v in json.loads(out)}
        assert set(verdicts) == {"W1", "W2", "W3", "W4"}
        assert verdicts["W4"]["satisfied"]
        assert not verdicts["W2"]["satisfied"]
        assert verdicts["W2"]["failed_clause"] == "ii_b"


REDUCED_WEB_STDOUT = """\
!treatment A
!outcome Y
A
Y
O3
O1
W3
W4
O2
W5
A -> Y
O3 -> Y
O1 -> Y
O1 -> A
O2 -> Y
W5 -> O2
W5 -> O1
W3 -> A
W4 -> A
O3 -> A
W3 -> O1
W4 -> O1
W5 -> A
"""


class TestReduce:
    def test_reduced_graph_round_trips(self, capsys, motivating_file, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, ["reduce", "--graph", motivating_file, "--report", str(report_path)]
        )
        assert code == 0
        assert parse_graph(out) == golden("motivating_reduced")
        report = json.loads(report_path.read_text())
        assert [r["vertex"] for r in report["removed"]] == ["I1", "W4", "W1"]
        assert report["removed"][1]["pi"] == ["O1", "A"]
        verdicts = {v["vertex"]: v for v in report["verdicts"]}
        assert list(verdicts) == ["W4", "W2", "W3", "W1"]
        for kept in ("W2", "W3"):
            assert verdicts[kept] == {
                "vertex": kept,
                "set": "W",
                "satisfied": False,
                "failed_clause": "ii_b",
                "failed_index": 1,
                "chain": ["W4"],
            }
        assert verdicts["W4"]["satisfied"] and verdicts["W1"]["satisfied"]

    def test_stdout_is_pinned(self, capsys, tmp_path):
        # three I vertices, declared against their elimination order, and
        # three projections: the input's surviving edges come first, then
        # the I edges, then each projection's edges in declaration order
        path = tmp_path / "web.graph"
        path.write_text(COVARIATE_WEB_TEXT + "I3 -> A\nI2 -> I1\nW4 -> I3\nW3 -> I2\n")
        code, out, _ = run(capsys, ["reduce", "--graph", str(path)])
        assert code == 0
        assert out == REDUCED_WEB_STDOUT

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["reduce", "--graph", str(tmp_path / "nope")])
        assert code == 2
        assert "error" in err

    def test_assumption_violation_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("!treatment A\n!outcome Y\nY -> A\n")
        code, _, err = run(capsys, ["reduce", "--graph", str(path)])
        assert code == 3


class TestEquiv:
    def test_motivating_pair(self, capsys, tmp_path, motivating_file):
        other = tmp_path / "motivating_flipped.graph"
        other.write_text(MOTIVATING_FLIPPED_TEXT)
        code, out, _ = run(
            capsys, ["equiv", "--graph", motivating_file, "--graph", str(other)]
        )
        assert code == 0
        assert json.loads(out) == {"markov": True, "causal_markov": True}

    def test_needs_two_graphs(self, capsys, motivating_file):
        code, _, err = run(capsys, ["equiv", "--graph", motivating_file])
        assert code == 2


class TestGFormula:
    def test_text_reduced(self, capsys, motivating_file):
        code, out, _ = run(
            capsys, ["gformula", "--graph", motivating_file, "--reduce"]
        )
        assert code == 0
        assert out.strip() == (
            "sum_{y,o1,w2,w3} y * p(y|a,o1) * p(o1|w2,w3) * p(w2) * p(w3)"
        )

    def test_json_format(self, capsys, motivating_file):
        code, out, _ = run(
            capsys, ["gformula", "--graph", motivating_file, "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "Y"

    @pytest.mark.parametrize("fmt", ["text", "latex"])
    def test_json_path_outside_json_format_rejected(self, capsys, motivating_file, tmp_path, fmt):
        path = tmp_path / "out.json"
        argv = ["gformula", "--graph", motivating_file, "--format", fmt, "--json", str(path)]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "--json applies only to --format json" in err
        assert not path.exists()


class TestEstimate:
    def test_exact_g_on_bn_file(self, capsys, tmp_path):
        g = golden("motivating_slim")
        bn = random_law(g, {v: 2 for v in g.vertices}, seed=4, epsilon=0.05)
        path = tmp_path / "net.json"
        save_bn(bn, str(path))
        code, out, _ = run(
            capsys, ["estimate", "--bn", str(path), "--level", "1", "--estimator", "g"]
        )
        assert code == 0
        payload = json.loads(out)
        from causal_reduce.functionals import g_functional_exact

        assert payload["value"] == pytest.approx(g_functional_exact(bn, 1))

    def test_unnormalized_bn_is_rejected(self, capsys, tmp_path):
        g = golden("motivating_slim")
        bn = random_law(g, {v: 2 for v in g.vertices}, seed=4, epsilon=0.05)
        payload = bn_to_json(bn)
        payload["cpts"]["W2"]["table"] = [[0.9, 0.9]]
        path = tmp_path / "net.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(
            capsys, ["estimate", "--bn", str(path), "--level", "1", "--estimator", "g"]
        )
        assert code == 2
        assert out == ""
        assert "'W2'" in err and "sums to 1.8" in err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda p: [], "network JSON must be an object"),
            (lambda p: p["cpts"].update(W2=[[0.5, 0.5]]), "cpts.W2"),
            (lambda p: p["cards"].update(W2=None), "cards.W2"),
            (lambda p: p["graph"].update(treatment=["A"]), "graph.treatment"),
            (lambda p: p["graph"]["edges"].append("W2"), "graph.edges["),
            (lambda p: p["cpts"]["W2"].update(table=[[None, 1.0]]), "'W2' has entries outside"),
        ],
    )
    def test_malformed_bn_json_is_input_error(self, capsys, tmp_path, edit, field):
        g = golden("motivating_slim")
        payload = bn_to_json(random_law(g, {v: 2 for v in g.vertices}, seed=4, epsilon=0.05))
        edited = edit(payload)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(payload if edited is None else edited))
        code, out, err = run(
            capsys, ["estimate", "--bn", str(path), "--level", "1", "--estimator", "g"]
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and field in err and "Traceback" not in err

    def test_g_plugin_on_wide_data(self, capsys, tmp_path):
        # a 26-vertex binary chain: its labels hold 2**26 cells, its largest
        # family 8, and the full graph's plugin is the reduced graph's
        ws = [f"W{i}" for i in range(1, 25)]
        edges = list(zip(ws, ws[1:])) + [(ws[-1], "A"), ("A", "Y"), (ws[-1], "Y")]
        g = Dag(ws + ["A", "Y"], edges, "A", "Y")
        ds = sample(random_law(g, {v: 2 for v in g.vertices}, seed=3, epsilon=0.02), 5000, seed=1)
        data_path, graph_path = tmp_path / "chain.csv", tmp_path / "chain.graph"
        dataset_to_csv(ds, str(data_path))
        graph_path.write_text(format_graph(g))
        argv = ["estimate", "--data", str(data_path), "--graph", str(graph_path)]
        code, out, err = run(capsys, argv + ["--level", "1", "--estimator", "g"])
        assert code == 0, err
        want = plugin_g(ds, reduce(g).output, 1)
        assert abs(json.loads(out)["value"] - want) <= 1e-12

    def test_plugin_on_csv(self, capsys, tmp_path, motivating_file):
        g = golden("motivating")
        bn = random_law(g, {v: 2 for v in g.vertices}, seed=4, epsilon=0.05)
        ds = sample(bn, 4000, seed=5)
        data_path = tmp_path / "d.csv"
        dataset_to_csv(ds, str(data_path))
        code, out, _ = run(
            capsys,
            [
                "estimate",
                "--data",
                str(data_path),
                "--graph",
                motivating_file,
                "--level",
                "1",
                "--estimator",
                "adjustment",
                "--adjust",
                "O1",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["value"] <= 1.0
        assert payload["n"] == 4000

    @pytest.mark.parametrize("estimator, extra", [("g", []), ("adjustment", ["--adjust", "O1"])])
    def test_payload_names_the_estimator_flag(self, capsys, tmp_path, estimator, extra):
        # the same keys from the law and from data: the --estimator value,
        # the estimate, and the row count or null
        g = golden("motivating")
        bn = random_law(g, {v: 2 for v in g.vertices}, seed=4, epsilon=0.05)
        ds = sample(bn, 4000, seed=5)
        bn_path, data_path, graph_path = tmp_path / "net.json", tmp_path / "d.csv", tmp_path / "g.graph"
        save_bn(bn, str(bn_path))
        dataset_to_csv(ds, str(data_path))
        graph_path.write_text(MOTIVATING_TEXT)
        flags = ["--estimator", estimator, "--level", "1"] + extra
        plugin = plugin_g(ds, g, 1) if estimator == "g" else plugin_adjustment(ds, g, {"O1"}, 1)
        for source, n, value in (
            (["--bn", str(bn_path)], None, None),
            (["--data", str(data_path), "--graph", str(graph_path)], 4000, plugin),
        ):
            code, out, err = run(capsys, ["estimate"] + source + flags)
            assert code == 0, err
            payload = json.loads(out)
            assert list(payload) == ["estimator", "value", "n"]
            assert payload["estimator"] == estimator and payload["n"] == n
            if value is not None:
                assert payload["value"] == value

    @pytest.mark.parametrize(
        "estimator, extra, code",
        [
            ("g", [], 3),
            ("adjustment", ["--adjust", "O"], 3),
            ("eif-variance", [], 3),
            ("front-door", ["--mediators", "M"], 2),
        ],
    )
    def test_positivity_exit_codes(self, capsys, tmp_path, estimator, extra, code):
        # P(A=1 | O=0) = 0 makes PositivityError (exit 3) on the g-formula,
        # adjustment on O and the variance bound; front-door needs only
        # P(A=1) > 0, so it is made null on both rows: ZeroConditioningEvent
        # (exit 2)
        g = golden("front_door")
        bn = random_law(g, {v: 2 for v in g.vertices}, seed=4, epsilon=0.05)
        rows = [[1.0, 0.0], [1.0, 0.0] if estimator == "front-door" else bn.cpts["A"][1]]
        path = tmp_path / "net.json"
        save_bn(bn.with_cpt("A", np.array(rows)), str(path))
        argv = ["estimate", "--bn", str(path), "--estimator", estimator, "--level", "1"]
        got, out, err = run(capsys, argv + extra)
        assert got == code and out == ""
        assert "error:" in err

    @pytest.mark.parametrize("level", ["-1", "2"])
    def test_front_door_level_out_of_range(self, capsys, tmp_path, level):
        g = golden("front_door")
        path = tmp_path / "net.json"
        save_bn(random_law(g, {v: 2 for v in g.vertices}, seed=4, epsilon=0.05), str(path))
        argv = ["estimate", "--bn", str(path), "--estimator", "front-door"]
        code, out, err = run(capsys, argv + ["--mediators", "M", "--level", level])
        assert code == 2 and out == ""
        assert f"treatment level {level} out of range" in err

    @pytest.mark.parametrize(
        "estimator, flag, labels, held",
        [
            ("adjustment", "--adjust", "Y", "adjustment set may not hold Y"),
            ("adjustment", "--adjust", "O,A", "adjustment set may not hold A"),
            ("adjustment", "--adjust", "M", "adjustment set may not hold M"),
            ("front-door", "--mediators", "O", "mediator set may not hold O"),
            ("front-door", "--mediators", "M,Y", "mediator set may not hold Y"),
        ],
    )
    def test_set_outside_its_role_rejected(self, capsys, tmp_path, estimator, flag, labels, held):
        g = golden("front_door")
        path = tmp_path / "net.json"
        save_bn(random_law(g, {v: 2 for v in g.vertices}, seed=4, epsilon=0.05), str(path))
        argv = ["estimate", "--bn", str(path), "--estimator", estimator, flag, labels]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert held in err

    def test_front_door_without_mediators_rejected(self, capsys, tmp_path):
        g = golden("front_door")
        path = tmp_path / "net.json"
        save_bn(random_law(g, {v: 2 for v in g.vertices}, seed=4, epsilon=0.05), str(path))
        code, out, err = run(capsys, ["estimate", "--bn", str(path), "--estimator", "front-door"])
        assert code == 2 and out == ""
        assert "mediator set is empty" in err

    @pytest.mark.parametrize(
        "estimator, flag, labels, reader",
        [
            ("g", "--adjust", "Y", "adjustment"),
            ("front-door", "--adjust", "O", "adjustment"),
            ("eif-variance", "--mediators", "O", "front-door"),
            ("adjustment", "--mediators", "M", "front-door"),
        ],
    )
    def test_set_flag_the_estimator_does_not_read_rejected(
        self, capsys, tmp_path, estimator, flag, labels, reader
    ):
        g = golden("front_door")
        path = tmp_path / "net.json"
        save_bn(random_law(g, {v: 2 for v in g.vertices}, seed=4, epsilon=0.05), str(path))
        argv = ["estimate", "--bn", str(path), "--estimator", estimator, flag, labels]
        if estimator == "adjustment":
            argv += ["--adjust", "O"]
        if estimator == "front-door":
            argv += ["--mediators", "M"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert f"{flag} applies only to --estimator {reader}" in err

    @pytest.mark.parametrize("extra", [["--data", "--graph"], ["--graph"], ["--data"]])
    def test_bn_with_data_or_graph_rejected(self, capsys, tmp_path, extra):
        g = parse_graph(CONFOUNDED_TEXT)
        bn = random_law(g, {v: 2 for v in g.vertices}, seed=1, epsilon=0.05)
        files = {flag: tmp_path / name for flag, name in
                 [("--bn", "net.json"), ("--data", "d.csv"), ("--graph", "g.graph")]}
        save_bn(bn, str(files["--bn"]))
        dataset_to_csv(sample(bn, 100, seed=1), str(files["--data"]))
        files["--graph"].write_text(CONFOUNDED_TEXT)
        argv = ["estimate", "--bn", str(files["--bn"])]
        for flag in extra:
            argv += [flag, str(files[flag])]
        code, out, err = run(capsys, argv + ["--level", "1", "--estimator", "g"])
        assert code == 2 and out == ""
        assert "--bn takes neither --data nor --graph" in err

    def test_estimate_without_source_is_input_error(self, capsys):
        code, _, err = run(capsys, ["estimate", "--level", "1"])
        assert code == 2


CONFOUNDED_TEXT = "!treatment A\n!outcome Y\nO -> A\nO -> Y\nA -> Y\n"

# A = 1 is seen only with O = 0, so p(Y | O=1, A=1) is an empty cell that
# both estimators need.
EMPTY_CELL_CSV = "O,A,Y\n0,1,1\n0,0,0\n1,0,1\n1,0,0\n"

# No row has A = 1, so the treatment's cardinality read from the data is 1.
UNSEEN_LEVEL_CSV = "O,A,Y\n0,0,1\n1,0,0\n"

# Every cell the g-formula needs at A = 1 is observed.
FULL_CELLS_CSV = "O,A,Y\n0,1,1\n0,0,0\n1,0,1\n1,1,0\n0,1,0\n"


def estimate_on_csv(capsys, tmp_path, text, estimator, level=1, extra=()):
    graph_path = tmp_path / "confounded.graph"
    graph_path.write_text(CONFOUNDED_TEXT)
    data_path = tmp_path / "d.csv"
    data_path.write_text(text)
    argv = ["estimate", "--data", str(data_path), "--graph", str(graph_path)]
    argv += ["--level", str(level), "--estimator", estimator]
    if estimator == "adjustment":
        argv += ["--adjust", "O"]
    return run(capsys, argv + list(extra))


class TestDataInput:
    @pytest.mark.parametrize("estimator", ["g", "adjustment"])
    def test_empty_cell_is_input_error(self, capsys, tmp_path, estimator):
        code, out, err = estimate_on_csv(capsys, tmp_path, EMPTY_CELL_CSV, estimator)
        assert code == 2
        assert out == ""
        assert "no observations" in err

    @pytest.mark.parametrize(
        "estimator, cell", [("g", "('Y', (0,))"), ("adjustment", "('Y', (0,))")]
    )
    def test_unseen_level_is_empty_cell(self, capsys, tmp_path, estimator, cell):
        code, out, err = estimate_on_csv(capsys, tmp_path, UNSEEN_LEVEL_CSV, estimator)
        assert code == 2 and out == ""
        assert f"no observations at needed cell {cell}" in err

    @pytest.mark.parametrize("estimator", ["g", "adjustment"])
    def test_negative_level_out_of_range(self, capsys, tmp_path, estimator):
        code, out, err = estimate_on_csv(capsys, tmp_path, UNSEEN_LEVEL_CSV, estimator, -1)
        assert code == 2 and out == ""
        assert "treatment level -1 out of range" in err

    @pytest.mark.parametrize("laplace", ["-0.25", "nan", "inf"])
    def test_invalid_laplace_rejected(self, capsys, tmp_path, laplace):
        extra = ["--laplace", laplace]
        code, out, err = estimate_on_csv(capsys, tmp_path, FULL_CELLS_CSV, "g", extra=extra)
        assert code == 2 and out == ""
        assert "laplace must be finite and >= 0" in err

    def test_laplace_outside_the_g_plugin_rejected(self, capsys, tmp_path):
        extra = ["--laplace", "-1"]
        code, out, err = estimate_on_csv(capsys, tmp_path, FULL_CELLS_CSV, "adjustment", extra=extra)
        assert code == 2 and out == ""
        assert "--laplace applies only to --data with --estimator g" in err
        g = golden("front_door")
        path = tmp_path / "net.json"
        save_bn(random_law(g, {v: 2 for v in g.vertices}, seed=4, epsilon=0.05), str(path))
        for laplace in ("nan", "0.5"):
            code, out, err = run(capsys, ["estimate", "--bn", str(path), "--laplace", laplace])
            assert code == 2 and out == ""
            assert "--laplace applies only to --data with --estimator g" in err

    def test_adjustment_set_with_outcome_rejected(self, capsys, tmp_path):
        extra = ["--adjust", "Y"]
        code, out, err = estimate_on_csv(capsys, tmp_path, FULL_CELLS_CSV, "adjustment", extra=extra)
        assert code == 2 and out == ""
        assert "adjustment set may not hold Y" in err

    def test_zero_laplace_is_no_smoothing(self, capsys, tmp_path):
        code, out, _ = estimate_on_csv(capsys, tmp_path, FULL_CELLS_CSV, "g")
        assert code == 0
        extra = ["--laplace", "0"]
        code, zero, _ = estimate_on_csv(capsys, tmp_path, FULL_CELLS_CSV, "g", extra=extra)
        assert code == 0 and zero == out

    def test_negative_state_rejected(self, capsys, tmp_path):
        text = "O,A,Y\n0,1,1\n0,1,-1\n1,1,0\n1,0,1\n0,0,0\n"
        code, out, err = estimate_on_csv(capsys, tmp_path, text, "adjustment")
        assert code == 2 and out == ""
        assert "negative state -1 in column 'Y'" in err

    def test_header_without_rows_rejected(self, capsys, tmp_path):
        code, out, err = estimate_on_csv(capsys, tmp_path, "O,A,Y\n", "adjustment")
        assert code == 2 and out == ""
        assert "no data rows" in err

    def test_duplicate_labels_rejected(self, capsys, tmp_path):
        text = "O,A,A\n0,1,1\n1,0,0\n"
        code, out, err = estimate_on_csv(capsys, tmp_path, text, "adjustment")
        assert code == 2 and out == ""
        assert "duplicate column labels ['A']" in err

    def test_ragged_row_rejected_with_line(self, capsys, tmp_path):
        text = "O,A,Y\n0,1,1\n1,0\n"
        code, out, err = estimate_on_csv(capsys, tmp_path, text, "g")
        assert code == 2 and out == ""
        assert "line 3" in err and "2 fields, expected 3" in err

    def test_non_integer_row_rejected_with_line(self, capsys, tmp_path):
        text = "O,A,Y\n0,1,1\n1,0,0\n1,0.5,1\n"
        code, out, err = estimate_on_csv(capsys, tmp_path, text, "g")
        assert code == 2 and out == ""
        assert "line 4" in err and "invalid literal for int()" in err


class TestSimulate:
    def test_small_run_json(self, capsys, tmp_path):
        dest = tmp_path / "sim.json"
        code, _, err = run(
            capsys,
            [
                "simulate",
                "--setting",
                "a",
                "--n",
                "2000",
                "--reps",
                "4",
                "--seed",
                "1",
                "--json",
                str(dest),
            ],
        )
        assert code == 0
        payload = json.loads(dest.read_text())
        assert payload["m"] == 5 and payload["k"] == 50
        assert len(payload["rows"]) == 3
        assert payload["skipped_replications"] == 0 and payload["skips"] == []
