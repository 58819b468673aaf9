from __future__ import annotations

import numpy as np
import pytest

from stochdom import (
    DimensionError,
    DiscreteRandomVariable,
    DomainError,
    PortfolioWeights,
    RiskSpec,
    ScenarioSet,
    mean,
    portfolio_return_variable,
)
from stochdom.types import order_value


class TestDiscreteRandomVariable:
    def test_sorted_ascending(self):
        v = DiscreteRandomVariable([5.0, 1.0, 3.0], [0.2, 0.5, 0.3])
        assert np.all(np.diff(v.outcomes) > 0)
        assert v.outcomes[0] == 1.0

    def test_probabilities_follow_sort(self):
        v = DiscreteRandomVariable([5.0, 1.0], [0.25, 0.75])
        assert v.probabilities[0] == 0.75

    def test_duplicates_merge(self):
        v = DiscreteRandomVariable([2.0, 2.0, 3.0], [0.25, 0.25, 0.5])
        assert v.n_atoms == 2
        assert v.probabilities[0] == pytest.approx(0.5, abs=1e-15)

    def test_merge_preserves_mass_and_mean(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=6)
        outcomes = np.concatenate([base, base + 1e-15])
        probs = np.full(12, 1.0 / 12)
        v = DiscreteRandomVariable(outcomes, probs)
        assert v.n_atoms == 6
        assert v.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert mean(v) == pytest.approx(float(np.dot(outcomes, probs)), abs=1e-12)

    def test_construction_deterministic(self):
        args = ([3.0, 1.0, 2.0], [0.3, 0.2, 0.5])
        a = DiscreteRandomVariable(*args)
        b = DiscreteRandomVariable(*args)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_renormalizes_small_deviation(self):
        v = DiscreteRandomVariable([1.0, 2.0], [0.5, 0.5 + 5e-10])
        assert v.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_large_deviation(self):
        with pytest.raises(DomainError):
            DiscreteRandomVariable([1.0, 2.0], [0.5, 0.6])

    def test_rejects_nonpositive_probability(self):
        with pytest.raises(DomainError):
            DiscreteRandomVariable([1.0, 2.0], [1.0, 0.0])

    def test_rejects_nan_outcome(self):
        with pytest.raises(DomainError):
            DiscreteRandomVariable([1.0, np.nan], [0.5, 0.5])

    def test_rejects_empty(self):
        with pytest.raises((DimensionError, DomainError)):
            DiscreteRandomVariable([], [])

    def test_immutable(self):
        v = DiscreteRandomVariable([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            v.outcomes[0] = 7.0


class TestScenarioSet:
    def test_shape_and_defaults(self):
        s = ScenarioSet(np.arange(6.0).reshape(2, 3))
        assert (s.d, s.n) == (2, 3)
        assert np.allclose(s.scenario_probabilities, 1.0 / 3)
        assert s.asset_labels == ("Asset_1", "Asset_2")

    def test_rejects_single_scenario(self):
        with pytest.raises(DimensionError):
            ScenarioSet(np.ones((2, 1)))

    def test_rejects_nan(self):
        bad = np.ones((2, 3))
        bad[1, 2] = np.inf
        with pytest.raises(DomainError):
            ScenarioSet(bad)

    def test_label_mismatch(self):
        with pytest.raises(DimensionError):
            ScenarioSet(np.ones((2, 3)), asset_labels=("just_one",))


class TestPortfolioWeights:
    def test_simplex_residual_reflects_stored_vector(self):
        w = PortfolioWeights([0.5, 0.5 - 3e-9])
        assert w.simplex_residual() == pytest.approx(3e-9, rel=1e-6)

    def test_clips_tiny_negative(self):
        w = PortfolioWeights([1.0 + 1e-12, -1e-12])
        assert w.weights[1] == 0.0

    def test_rejects_negative_beyond_tol(self):
        with pytest.raises(DomainError):
            PortfolioWeights([1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            PortfolioWeights([0.7, 0.7])

    def test_equal(self):
        assert np.allclose(PortfolioWeights.equal(4).weights, 0.25)


class TestDominanceOrderAndRiskSpec:
    def test_order_lower_bound(self):
        for p in (0.9, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                order_value(p)
        assert order_value(4.7) == 4.7
        assert order_value(2) == 2.0

    def test_riskspec_validation(self):
        with pytest.raises(DomainError):
            RiskSpec(beta=1.0, r=2.0)
        with pytest.raises(DomainError):
            RiskSpec(beta=0.5, r=0.5)
        assert set(RiskSpec.__dataclass_fields__) == {"beta", "r"}

    def test_loss_mapping(self):
        z = np.array([1.0, -2.0])
        assert np.array_equal(RiskSpec(0.1, 1.0).losses(z), [-1.0, 2.0])


class TestPortfolioReturnVariable:
    def test_identity_single_asset(self):
        s = ScenarioSet(np.array([[1.0, 2.0, 3.0]]))
        v = portfolio_return_variable(s, PortfolioWeights([1.0]))
        assert np.allclose(v.outcomes, [1.0, 2.0, 3.0])
        assert np.allclose(v.probabilities, 1.0 / 3)

    def test_duplicate_outcomes_merge(self):
        s = ScenarioSet(np.array([[1.0, 3.0], [3.0, 1.0]]))
        v = portfolio_return_variable(s, PortfolioWeights([0.5, 0.5]))
        assert v.n_atoms == 1
        assert v.outcomes[0] == pytest.approx(2.0, abs=1e-15)
        assert v.probabilities[0] == pytest.approx(1.0, abs=1e-15)

    def test_demo_equal_weight_mean(self, demo, demo_benchmark):
        # expected benchmark mean for the bundled dataset
        assert mean(demo_benchmark) == pytest.approx(0.125, abs=1e-3)

    def test_dimension_mismatch(self, demo):
        with pytest.raises(DimensionError):
            portfolio_return_variable(demo, PortfolioWeights.equal(3))

    def test_linear_in_weights(self, demo):
        rng = np.random.default_rng(42)
        w1 = rng.dirichlet(np.ones(demo.d))
        w2 = rng.dirichlet(np.ones(demo.d))
        for alpha in (0.0, 0.3, 1.0):
            blend = alpha * w1 + (1 - alpha) * w2
            direct = blend @ demo.returns
            combo = alpha * (w1 @ demo.returns) + (1 - alpha) * (w2 @ demo.returns)
            assert np.allclose(direct, combo, atol=1e-12)


class TestMean:
    def test_direct_summation(self):
        v = DiscreteRandomVariable([3, 5, 7, 9, 11], [0.15, 0.25, 0.30, 0.20, 0.10])
        assert mean(v) == pytest.approx(6.70, abs=1e-12)

    def test_single_outcome(self):
        assert mean(DiscreteRandomVariable([4.2], [1.0])) == pytest.approx(4.2)


def test_public_api_names():
    import stochdom

    assert sorted(stochdom.__all__) == sorted([
        "DiscreteRandomVariable", "ScenarioSet", "PortfolioWeights",
        "RiskSpec", "DomainError", "DimensionError",
        "portfolio_return_variable", "mean",
        "DominanceCertificate", "lower_partial_moment",
        "dominance_gap_at", "critical_thresholds", "verify",
        "RiskValue", "higher_order_risk", "risk_gradient_in_weights",
        "SolveReport", "optimize_max_return", "optimize_min_risk",
        "load_scenarios", "load_variable", "load_weights", "dump_scenarios",
        "demo_scenarios", "write_demo_csv",
        "emit_report", "emit_plot",
        "__version__",
    ])
    assert len(stochdom.__all__) == 28
    for name in stochdom.__all__:
        assert getattr(stochdom, name) is not None
