from __future__ import annotations

import numpy as np
import pytest

from stochdom import (
    DomainError,
    ScenarioSet,
    dump_scenarios,
    load_scenarios,
    load_variable,
    load_weights,
    write_demo_csv,
)


@pytest.fixture()
def demo_csv(tmp_path):
    path = tmp_path / "returns.csv"
    write_demo_csv(path)
    return path


class TestLoadScenarios:
    def test_demo_dimensions(self, demo_csv):
        s = load_scenarios(demo_csv)
        assert (s.d, s.n) == (5, 22)
        assert s.asset_labels == ("Asset_1", "Asset_2", "Asset_3", "Asset_4", "Asset_5")
        assert np.allclose(s.scenario_probabilities, 1.0 / 22)

    def test_date_column_dropped(self, demo_csv):
        s = load_scenarios(demo_csv)
        assert "Date" not in s.asset_labels

    def test_single_asset(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("OnlyAsset\n1.5\n-0.5\n2.0\n", encoding="utf-8")
        s = load_scenarios(p)
        assert (s.d, s.n) == (1, 3)
        assert np.allclose(s.scenario_probabilities, 1.0 / 3)
        assert np.allclose(s.returns, [[1.5, -0.5, 2.0]])

    def test_nan_cell_names_coordinates(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("A,B\n1.0,2.0\n3.0,nan\n", encoding="utf-8")
        with pytest.raises(DomainError, match=r"row 3, column 'B'"):
            load_scenarios(p)

    def test_unparseable_cell_names_coordinates(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("A,B\n1.0,2.0\nx7,4.0\n", encoding="utf-8")
        with pytest.raises(DomainError, match=r"row 3, column 'A'"):
            load_scenarios(p)

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("A,B\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(DomainError):
            load_scenarios(p)

    def test_probability_column(self, tmp_path):
        p = tmp_path / "probs.csv"
        p.write_text("A,B,w\n1.0,2.0,0.25\n3.0,4.0,0.75\n", encoding="utf-8")
        s = load_scenarios(p, prob_col="w")
        assert s.asset_labels == ("A", "B")
        assert np.allclose(s.scenario_probabilities, [0.25, 0.75])

    def test_missing_probability_column(self, tmp_path):
        p = tmp_path / "probs.csv"
        p.write_text("A,B\n1.0,2.0\n3.0,4.0\n", encoding="utf-8")
        with pytest.raises(DomainError):
            load_scenarios(p, prob_col="w")

    def test_round_trip_preserves_cells(self, tmp_path, demo_csv):
        s = load_scenarios(demo_csv)
        out = tmp_path / "dump.csv"
        dump_scenarios(s, out)
        s2 = load_scenarios(out)
        assert np.abs(s.returns - s2.returns).max() <= 1e-12
        assert s.asset_labels == s2.asset_labels

    def test_round_trip_preserves_probabilities(self, tmp_path):
        rng = np.random.default_rng(5)
        s = ScenarioSet(rng.normal(0.1, 1.0, (3, 12)), rng.dirichlet(np.full(12, 0.5)))
        out = tmp_path / "dump.csv"
        dump_scenarios(s, out)
        s2 = load_scenarios(out, prob_col="probability")
        assert np.abs(s.scenario_probabilities - s2.scenario_probabilities).max() <= 1e-15
        assert np.array_equal(s.returns, s2.returns)
        assert s.asset_labels == s2.asset_labels

    def test_round_trip_quotes_labels(self, tmp_path):
        p = tmp_path / "quoted.csv"
        p.write_text('"Asset, one",B\n1.5,2\n3,-4.25\n', encoding="utf-8")
        s = load_scenarios(p)
        assert s.asset_labels == ("Asset, one", "B")
        out = tmp_path / "dump.csv"
        dump_scenarios(s, out)
        s2 = load_scenarios(out)
        assert s2.asset_labels == s.asset_labels
        assert np.array_equal(s2.returns, s.returns)

    @pytest.mark.parametrize("labels, probs, match", [
        # load_scenarios would drop a first date column: one asset fewer
        (("Date", "B"), None, "'Date'.*date column"),
        # it strips every header cell
        ((" A", "B"), None, "' A'.*whitespace"),
        # the dump appends a 'probability' column, and the reload reads the asset
        (("probability", "B"), [0.2, 0.3, 0.5], "'probability'.*probability column"),
        # it skips a header row of empty cells as blank
        (("", ""), None, "''.*blank header"),
    ], ids=["date", "whitespace", "probability", "empty"])
    def test_labels_that_would_not_reload_are_refused(self, tmp_path, labels, probs, match):
        s = ScenarioSet(np.array([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]), probs, labels)
        with pytest.raises(DomainError, match=match):
            dump_scenarios(s, tmp_path / "dump.csv")

    @pytest.mark.parametrize("labels", [("B", "Date"), ("probability", "B")])
    def test_labels_refused_only_in_place_round_trip(self, tmp_path, labels):
        # a date label after the first column, or 'probability' with uniform probabilities
        s = ScenarioSet(np.array([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]), asset_labels=labels)
        dump_scenarios(s, tmp_path / "dump.csv")
        assert load_scenarios(tmp_path / "dump.csv").asset_labels == labels


class TestLoadVariable:
    def test_outcome_and_probability_columns(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text(
            "outcome,probability\n3,0.15\n5,0.25\n7,0.30\n9,0.20\n11,0.10\n",
            encoding="utf-8",
        )
        v = load_variable(p)
        assert np.allclose(v.outcomes, [3, 5, 7, 9, 11])
        assert np.allclose(v.probabilities, [0.15, 0.25, 0.30, 0.20, 0.10])

    def test_single_column_uniform(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("ret\n1.0\n2.0\n4.0\n", encoding="utf-8")
        v = load_variable(p)
        assert np.allclose(v.probabilities, 1.0 / 3)

    def test_ambiguous_columns_rejected(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("a,b\n1.0,2.0\n3.0,4.0\n", encoding="utf-8")
        with pytest.raises(DomainError):
            load_variable(p)


class TestLoadWeights:
    def test_single_row(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("A,B,C\n0.2,0.5,0.3\n", encoding="utf-8")
        assert np.allclose(load_weights(p), [0.2, 0.5, 0.3])

    def test_single_column(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("weight\n0.4\n0.6\n", encoding="utf-8")
        assert np.allclose(load_weights(p), [0.4, 0.6])

    def test_expected_length_checked(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("weight\n0.4\n0.6\n", encoding="utf-8")
        with pytest.raises(Exception):
            load_weights(p, expected_d=3)
