"""Metamorphic relations: solves that must move predictably when the input changes."""

from __future__ import annotations

import numpy as np
import pytest

from stochdom import RiskSpec, ScenarioSet, optimize_max_return, optimize_min_risk
from tests.test_optimize import equal_weight_benchmark, sweep_instance


def solve(s, bench, order, spec):
    if spec is None:
        return optimize_max_return(s, bench, order)
    return optimize_min_risk(s, bench, order, spec)


@pytest.mark.parametrize("order", [2.0, 3.0, 4.7])
def test_beta_zero_min_risk_is_minus_max_return(demo, demo_benchmark, order):
    # at beta = 0 the risk is the expected loss for every r
    best_return = optimize_max_return(demo, demo_benchmark, order).expected_return
    for r in (1.0, 2.0, 3.0):
        report = optimize_min_risk(demo, demo_benchmark, order, RiskSpec(0.0, r))
        assert abs(report.risk_value + best_return) <= 1e-12


def test_objective_monotone_in_integer_order(demo, demo_benchmark):
    # dominance at order p implies it at p + 1, so the feasible set grows
    s = ScenarioSet(sweep_instance(3))
    cases = [(demo, demo_benchmark), (s, equal_weight_benchmark(s))]
    for scenarios, bench in cases:
        returns = [optimize_max_return(scenarios, bench, p).expected_return for p in (2, 3, 4, 5)]
        assert all(b >= a - 1e-12 for a, b in zip(returns, returns[1:])), returns
        for spec in (RiskSpec(0.0, 2.0), RiskSpec(0.5, 2.0), RiskSpec(0.8, 1.0)):
            risks = [optimize_min_risk(scenarios, bench, p, spec).risk_value for p in (2, 3, 4, 5)]
            assert all(b <= a + 1e-12 for a, b in zip(risks, risks[1:])), risks


CASES = [(3.0, None), (4.7, RiskSpec(0.5, 2.0)), (2.0, RiskSpec(0.9, 1.0)), (4.0, RiskSpec(0.5, 3.0))]


@pytest.mark.parametrize("order, spec", CASES)
def test_permuting_assets_permutes_weights(demo, demo_benchmark, order, spec):
    perm = np.random.default_rng(17).permutation(demo.d)
    permuted = ScenarioSet(demo.returns[perm], demo.scenario_probabilities)
    base = solve(demo, demo_benchmark, order, spec)
    moved = solve(permuted, demo_benchmark, order, spec)
    assert abs(moved.objective_value - base.objective_value) <= 1e-9
    assert np.abs(moved.weights.weights - base.weights.weights[perm]).max() <= 1e-6


@pytest.mark.parametrize("order, spec", CASES)
def test_duplicated_scenarios_at_half_probability(demo, demo_benchmark, order, spec):
    half = demo.scenario_probabilities / 2.0
    doubled = ScenarioSet(np.hstack([demo.returns, demo.returns]), np.concatenate([half, half]))
    base = solve(demo, demo_benchmark, order, spec)
    assert abs(solve(doubled, demo_benchmark, order, spec).objective_value - base.objective_value) <= 1e-9
