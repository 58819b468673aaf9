from __future__ import annotations

import json
from xml.dom import minidom

import numpy as np
import pytest

from stochdom import (
    PortfolioWeights,
    demo_scenarios,
    emit_plot,
    emit_report,
    load_scenarios,
    optimize_max_return,
    portfolio_return_variable,
    verify,
    write_demo_csv,
    SolveReport,
)
from stochdom import optimize
from stochdom.cli import EXIT_IO, EXIT_NOT_DOMINANT, EXIT_OK, EXIT_USAGE, main
from stochdom.report import JSON_KEYS, report_payload, render_json


def write_variable_csv(path, outcomes, probabilities):
    lines = ["outcome,probability"]
    lines += [f"{o},{p}" for o, p in zip(outcomes, probabilities)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture()
def golden_files(tmp_path):
    y = tmp_path / "y.csv"
    x = tmp_path / "x.csv"
    write_variable_csv(y, [3, 5, 7, 9, 11], [0.15, 0.25, 0.30, 0.20, 0.10])
    write_variable_csv(x, [2, 4, 6, 8, 10], [0.10, 0.30, 0.30, 0.20, 0.10])
    return y, x


@pytest.fixture(scope="module")
def demo_report():
    s = demo_scenarios()
    bench = portfolio_return_variable(s, PortfolioWeights.equal(s.d))
    return s, optimize_max_return(s, bench, 4.0)


class TestEmitReport:
    def test_verify_text_exact(self, golden_y_x=None):
        from stochdom import DiscreteRandomVariable

        y = DiscreteRandomVariable([3, 5, 7, 9, 11], [0.15, 0.25, 0.30, 0.20, 0.10])
        x = DiscreteRandomVariable([2, 4, 6, 8, 10], [0.10, 0.30, 0.30, 0.20, 0.10])
        cert = verify(y, x, 2.0)
        text = emit_report(cert, command="verify", order=2.0)
        assert text == "Y dominates X in stochastic order 2\n"

    def test_json_schema_keys(self, tmp_path, demo_report):
        s, report = demo_report
        out = tmp_path / "r.json"
        emit_report(report, command="max-return", order=4.0, seed=42, json_path=out,
                    asset_labels=s.asset_labels)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert tuple(payload.keys()) == JSON_KEYS
        assert tuple(payload["residuals"].keys()) == ("simplex", "dominance")
        assert payload["command"] == "max-return"
        assert payload["seed"] == 42
        assert len(payload["weights"]) == 5

    def test_json_floats_have_17_significant_digits(self, demo_report):
        s, report = demo_report
        text = render_json(report_payload(report, "max-return", 4.0, 42))
        parsed = json.loads(text)
        # round-trip must reproduce the exact IEEE doubles
        assert parsed["expected_return"] == report.expected_return
        assert parsed["weights"] == [float(w) for w in report.weights.weights]

    def test_infeasible_report_has_null_fields(self):
        report = SolveReport(
            weights=None, active_thresholds=(), q_star=None, objective_value=None,
            expected_return=None, benchmark_return=0.1, risk_value=None,
            simplex_residual=None, dominance_residual=None, converged=False,
            iterations={"newton": 0, "constraint_rounds": 1},
            infeasible=True, message="nothing dominates",
        )
        payload = report_payload(report, "max-return", 3.0, 1)
        assert payload["weights"] == []
        assert payload["objective"] is None
        assert payload["infeasible"] is True
        text = emit_report(report, command="max-return", order=3.0)
        assert "No allocation satisfies" in text

    def test_verbose_residual_lines(self, demo_report):
        s, report = demo_report
        text = emit_report(report, True, command="max-return", order=4.0,
                           asset_labels=s.asset_labels)
        assert "Simplex Constraints residuals:" in text
        assert "Stochastic Dominance Constraints residuals:" in text
        assert "Iterations:" in text


class TestEmitPlot:
    def test_byte_deterministic(self, tmp_path, demo_report):
        s, report = demo_report
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot(report, a, asset_labels=s.asset_labels)
        emit_plot(report, b, asset_labels=s.asset_labels)
        assert a.read_bytes() == b.read_bytes()

    def test_single_asset_full_circle(self, tmp_path):
        report = SolveReport(
            weights=PortfolioWeights([1.0]), active_thresholds=(1.0,), q_star=None,
            objective_value=2.0, expected_return=2.0, benchmark_return=2.0,
            risk_value=None, simplex_residual=0.0, dominance_residual=0.0,
            converged=True, iterations={"newton": 0, "constraint_rounds": 0},
        )
        out = tmp_path / "one.svg"
        emit_plot(report, out)
        svg = out.read_text(encoding="utf-8")
        assert "<circle" in svg
        assert "100.0%" in svg

    def test_labels_sum_to_hundred(self, tmp_path, demo_report):
        s, report = demo_report
        out = tmp_path / "pie.svg"
        emit_plot(report, out, asset_labels=s.asset_labels)
        svg = out.read_text(encoding="utf-8")
        pts = [
            float(part.split("%")[0].rsplit(" ", 1)[-1])
            for part in svg.splitlines()
            if "%</text>" in part and "Asset_" in part
        ]
        assert len(pts) == 5
        assert sum(pts) == pytest.approx(100.0, abs=0.1)

    def test_refuses_infeasible(self, tmp_path):
        report = SolveReport(
            weights=None, active_thresholds=(), q_star=None, objective_value=None,
            expected_return=None, benchmark_return=0.0, risk_value=None,
            simplex_residual=None, dominance_residual=None, converged=False,
            iterations={}, infeasible=True, message="no",
        )
        with pytest.raises(ValueError, match="infeasible"):
            emit_plot(report, tmp_path / "x.svg")


class TestCliVerify:
    def test_golden_pair_stdout_and_exit(self, golden_files, capsys):
        y, x = golden_files
        code = main(["verify", "--y", str(y), "--x", str(x), "--order", "2"])
        out = capsys.readouterr().out
        assert out == "Y dominates X in stochastic order 2\n"
        assert code == EXIT_OK

    def test_not_dominant_exit(self, golden_files, capsys):
        y, x = golden_files
        code = main(["verify", "--y", str(x), "--x", str(y), "--order", "2"])
        out = capsys.readouterr().out
        assert "does not dominate" in out
        assert code == EXIT_NOT_DOMINANT

    def test_usage_error_exit(self, capsys):
        assert main(["verify", "--order", "2"]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_domain_error_exit(self, golden_files):
        y, x = golden_files
        assert main(["verify", "--y", str(y), "--x", str(x), "--order", "0.2"]) == EXIT_USAGE

    def test_missing_file_is_io_error(self, tmp_path):
        missing = tmp_path / "nope.csv"
        code = main(["verify", "--y", str(missing), "--x", str(missing), "--order", "2"])
        assert code == EXIT_IO

    def test_sd_seed_is_ignored(self, golden_files, monkeypatch):
        # verify records no seed, so a malformed SD_SEED does not change its exit
        monkeypatch.setenv("SD_SEED", "x")
        y, x = golden_files
        assert main(["verify", "--y", str(y), "--x", str(x), "--order", "2"]) == EXIT_OK
        assert main(["verify", "--y", str(x), "--x", str(y), "--order", "2"]) == EXIT_NOT_DOMINANT

    def test_verbose_adds_details(self, golden_files, capsys):
        y, x = golden_files
        main(["verify", "--y", str(y), "--x", str(x), "--order", "2", "--verbose"])
        out = capsys.readouterr().out
        assert "Worst threshold" in out
        assert "Thresholds checked" in out
        assert "Decided by: atom" in out
        assert "Certified supremum of the gap: 0" in out


class TestCliSolve:
    @pytest.fixture()
    def data_csv(self, tmp_path):
        path = tmp_path / "returns.csv"
        write_demo_csv(path)
        return path

    def test_max_return_json_round_trip(self, data_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "max-return", "--data", str(data_csv), "--order", "4",
            "--json", str(out), "--verbose",
        ])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "Stochastic Dominance Constraints residuals:" in stdout
        payload = json.loads(out.read_text(encoding="utf-8"))
        # reload data, rebuild the portfolio, and re-verify the dominance claim
        s = load_scenarios(data_csv)
        w = PortfolioWeights(np.array(payload["weights"]))
        bench = portfolio_return_variable(s, PortfolioWeights.equal(s.d))
        cert = verify(portfolio_return_variable(s, w), bench, payload["order"])
        assert max(0.0, cert.worst_gap) <= 1e-8
        assert payload["residuals"]["dominance"] <= 1e-8

    def test_min_risk_requires_beta_and_r(self, data_csv):
        assert main(["min-risk", "--data", str(data_csv), "--order", "4.7"]) == EXIT_USAGE

    def test_min_risk_runs(self, data_csv, tmp_path, capsys):
        out = tmp_path / "risk.json"
        code = main([
            "min-risk", "--data", str(data_csv), "--order", "3",
            "--beta", "0.5", "--r", "2.0", "--json", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["command"] == "min-risk"
        assert payload["q_star"] is not None
        assert payload["risk_value"] is not None

    def test_infeasible_exit_and_message(self, tmp_path, capsys):
        data = tmp_path / "r.csv"
        data.write_text("A,B\n1.0,0.5\n2.0,1.5\n", encoding="utf-8")
        series = tmp_path / "bench.csv"
        series.write_text("outcome\n50.0\n51.0\n", encoding="utf-8")
        code = main([
            "max-return", "--data", str(data), "--order", "2",
            "--benchmark-series", str(series),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_NOT_DOMINANT
        assert "No allocation satisfies" in out

    def test_weights_that_do_not_dominate_exit_2(self, data_csv, monkeypatch, capsys):
        # one cut-adding round is too few for the demo at order 2: the
        # returned weights carry their true residual, above --tol
        monkeypatch.setattr(optimize, "MAX_GENERATED_CONSTRAINTS", 1)
        code = main(["max-return", "--data", str(data_csv), "--order", "2", "--verbose"])
        out = capsys.readouterr().out
        assert code == EXIT_NOT_DOMINANT
        assert "the budget of 1 cut-adding rounds ran out" in out

    def test_unconverged_weights_say_why_without_verbose(self, data_csv, monkeypatch, capsys):
        monkeypatch.setattr(optimize, "MAX_GENERATED_CONSTRAINTS", 1)
        code = main(["max-return", "--data", str(data_csv), "--order", "2"])
        out = capsys.readouterr().out
        assert code == EXIT_NOT_DOMINANT
        assert "the budget of 1 cut-adding rounds ran out" in out
        assert "not certified" in out
        assert "Optimal allocation" not in out

    def test_unconverged_plot_is_not_titled_optimal(self, data_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_GENERATED_CONSTRAINTS", 1)
        svg = tmp_path / "alloc.svg"
        code = main(["max-return", "--data", str(data_csv), "--order", "2", "--plot", str(svg)])
        assert code == EXIT_NOT_DOMINANT
        texts = [node.firstChild.data for node in minidom.parse(str(svg)).getElementsByTagName("text")]
        assert texts[0] == "Allocation not certified as optimal and dominant"
        assert any(t.startswith("Expected return: ") for t in texts)
        assert not any("Optimal" in t or "Optimized" in t for t in texts)

    def test_single_asset_infeasible_exit(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("A\n1.0\n2.0\n3.0\n", encoding="utf-8")
        series = tmp_path / "bench.csv"
        series.write_text("outcome\n5.0\n6.0\n", encoding="utf-8")
        code = main([
            "max-return", "--data", str(data), "--order", "2",
            "--benchmark-series", str(series),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_NOT_DOMINANT
        assert "least violated gap" in out

    def test_benchmark_weights_file(self, data_csv, tmp_path):
        wfile = tmp_path / "w.csv"
        wfile.write_text("w\n0.2\n0.2\n0.2\n0.2\n0.2\n", encoding="utf-8")
        code = main([
            "max-return", "--data", str(data_csv), "--order", "3",
            "--benchmark-weights", str(wfile),
        ])
        assert code == EXIT_OK

    def test_unwritable_json_is_io_error(self, data_csv):
        code = main([
            "max-return", "--data", str(data_csv), "--order", "3",
            "--json", "/nonexistent_dir_zz/report.json",
        ])
        assert code == EXIT_IO

    @pytest.mark.parametrize("env", ["7", "x"])
    def test_sd_seed_changes_nothing(self, data_csv, tmp_path, monkeypatch, env):
        # the seed field comes from --seed alone, whatever SD_SEED holds
        out = tmp_path / "r.json"
        args = ["max-return", "--data", str(data_csv), "--order", "3", "--seed", "42",
                "--json", str(out)]
        assert main(args) == EXIT_OK
        plain = out.read_text(encoding="utf-8")
        monkeypatch.setenv("SD_SEED", env)
        assert main(args) == EXIT_OK
        assert out.read_text(encoding="utf-8") == plain
        assert json.loads(plain)["seed"] == 42

    def test_plot_written(self, data_csv, tmp_path):
        svg = tmp_path / "alloc.svg"
        code = main(["max-return", "--data", str(data_csv), "--order", "3",
                     "--plot", str(svg)])
        assert code == EXIT_OK
        assert svg.read_bytes().startswith(b"<?xml")
        texts = [node.firstChild.data for node in minidom.parse(str(svg)).getElementsByTagName("text")]
        assert texts[0] == "Optimal allocation"
        assert any(t.startswith("Optimized expected return: ") for t in texts)

    def test_plot_escapes_asset_labels(self, tmp_path):
        data = tmp_path / "r.csv"
        data.write_text("S&P 500,<Bonds>\n1.0,0.5\n2.0,1.5\n0.5,1.0\n", encoding="utf-8")
        svg = tmp_path / "alloc.svg"
        code = main(["max-return", "--data", str(data), "--order", "2", "--plot", str(svg)])
        assert code == EXIT_OK
        texts = [node.firstChild.data for node in minidom.parse(str(svg)).getElementsByTagName("text")]
        assert any(t.startswith("S&P 500 ") for t in texts)
        assert any(t.startswith("<Bonds> ") for t in texts)
