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
    SolverConfig,
    higher_order_risk,
    kkt_residual,
    max_return_problem,
    min_risk_problem,
    newton_refine,
    optimize_max_return,
    optimize_min_risk,
    portfolio_return_variable,
    project_to_simplex,
    verify,
)
from stochdom.optimize import SwarmConfig, pso_search
from stochdom.report import render_text
from tests.oracles import cvar_order2_lp, max_return_grid_search

CFG = SolverConfig()


def factor_model(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """Assets x scenarios returns: one market factor plus fat-tailed noise."""
    market = rng.normal(0.04, 1.0, n)
    beta = rng.uniform(0.6, 1.4, d)
    alpha = rng.normal(0.02, 0.05, d)
    vol = rng.uniform(0.5, 1.5, d)
    return alpha[:, None] + beta[:, None] * market[None, :] + vol[:, None] * rng.standard_t(6, (d, n))


def sweep_instance(k: int) -> np.ndarray:
    """Instance k of a seeded sweep of small random return matrices."""
    rng = np.random.default_rng(1)
    for _ in range(k + 1):
        d = int(rng.integers(3, 8))
        n = int(rng.integers(10, 40))
        returns = np.round(rng.normal(0.1, 1.0, (d, n)), 3)
    return returns


def equal_weight_benchmark(s: ScenarioSet) -> DiscreteRandomVariable:
    return portfolio_return_variable(s, PortfolioWeights.equal(s.d))


def two_asset_instance(rng: np.random.Generator, slack: float = 0.0):
    n = int(rng.integers(6, 14))
    returns = np.round(rng.normal(0.2, 1.0, (2, n)), 2)
    s = ScenarioSet(returns)
    wb = rng.dirichlet(np.ones(2))
    port = portfolio_return_variable(s, PortfolioWeights(wb))
    # optional downward shift widens the feasible region around wb
    bench = DiscreteRandomVariable(port.outcomes - slack, port.probabilities)
    return s, bench, wb


class TestProjectToSimplex:
    def test_identity_on_simplex(self):
        w = np.array([0.2, 0.5, 0.3])
        assert np.allclose(project_to_simplex(w).weights, w, atol=1e-12)

    def test_two_dim_clamp(self):
        got = project_to_simplex([2.0, 0.0]).weights
        assert np.allclose(got, [1.0, 0.0], atol=1e-12)
        # brute-force check: nothing on the segment is closer
        grid = np.linspace(0.0, 1.0, 100001)
        dists = (grid - 2.0) ** 2 + (1.0 - grid) ** 2
        best = grid[np.argmin(dists)]
        assert got[0] == pytest.approx(best, abs=1e-4)

    def test_symmetry(self):
        assert np.allclose(project_to_simplex([0.6, 0.6]).weights, [0.5, 0.5], atol=1e-15)

    def test_idempotent_random(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            v = rng.normal(0, 2, int(rng.integers(1, 8)))
            once = project_to_simplex(v).weights
            twice = project_to_simplex(once).weights
            assert np.allclose(once, twice, atol=1e-12)
            assert once.min() >= 0.0
            assert once.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            project_to_simplex([])


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.newton_max_iter == 100
        assert cfg.newton_tol == 1e-10
        assert cfg.constraint_tol == 1e-8
        assert cfg.max_generated_constraints == 50
        assert set(cfg.__dataclass_fields__) == {
            "newton_max_iter", "newton_tol", "constraint_tol", "max_generated_constraints",
        }

    def test_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(newton_max_iter=0)
        with pytest.raises(DomainError):
            SolverConfig(newton_tol=0.0)


class TestPsoSearch:
    def test_swarm_config_zero_iterations_allowed(self):
        assert SwarmConfig(iterations=0).iterations == 0
        with pytest.raises(DomainError):
            SwarmConfig(swarm_size=0)

    def test_concentrates_on_dominating_asset(self):
        returns = np.array([[2.0, 3.0, 1.5, 2.5], [1.0, 1.2, 0.8, 0.9]])
        s = ScenarioSet(returns)
        mr = s.mean_returns()

        def objective(w):
            return -float(w.weights @ mr)

        best = pso_search(objective, lambda w: 0.0, 2, SwarmConfig())
        # exhaustive grid over the 2-simplex agrees
        grid = np.linspace(0, 1, 10001)
        means = grid * mr[0] + (1 - grid) * mr[1]
        expected = grid[np.argmax(means)]
        assert abs(best.weights[0] - expected) < 1e-3

    def test_zero_iteration_budget_returns_projected_start(self):
        cfg = SwarmConfig(swarm_size=1, iterations=0)
        got = pso_search(lambda w: 0.0, lambda w: 0.0, 3, cfg)
        assert np.allclose(got.weights, 1.0 / 3, atol=1e-15)

    def test_deterministic_for_fixed_seed(self):
        returns = np.array([[0.5, -0.3, 0.8], [0.2, 0.4, -0.1]])
        s = ScenarioSet(returns)
        mr = s.mean_returns()
        cfg = SwarmConfig(swarm_size=8, iterations=25, rng_seed=7)
        a = pso_search(lambda w: -float(w.weights @ mr), lambda w: 0.0, 2, cfg)
        b = pso_search(lambda w: -float(w.weights @ mr), lambda w: 0.0, 2, cfg)
        assert np.array_equal(a.weights, b.weights)

    def test_penalty_steers_to_feasible_region(self):
        # objective prefers asset 1, penalty forbids weight above 0.5 on it
        def objective(w):
            return -float(w.weights[0])

        def penalty(w):
            return max(0.0, float(w.weights[0]) - 0.5)

        best = pso_search(objective, penalty, 2, SwarmConfig())
        assert best.weights[0] == pytest.approx(0.5, abs=1e-2)


class TestNewtonRefine:
    def test_inactive_cuts_give_best_vertex(self):
        returns = np.array([[1.0, 2.0, 3.0, 0.5], [0.2, 1.0, 0.4, 0.1], [0.5, 0.3, 0.2, 0.9]])
        s = ScenarioSet(returns)
        bench = DiscreteRandomVariable([-10.0, -9.0], [0.5, 0.5])
        problem = max_return_problem(s, bench, 3.0)
        thresholds = [float(t) for t in bench.outcomes]
        w, q, diag = newton_refine(problem, PortfolioWeights.equal(3), thresholds, SolverConfig())
        best = int(np.argmax(s.mean_returns()))
        expected = np.zeros(3)
        expected[best] = 1.0
        assert q is None
        assert np.abs(w.weights - expected).max() <= 1e-8
        assert diag.converged

    def test_fixed_point_restart(self):
        rng = np.random.default_rng(11)
        s = ScenarioSet(np.round(rng.normal(0.2, 1.0, (2, 10)), 2))
        bench = DiscreteRandomVariable([-9.0, -8.0], [0.5, 0.5])
        spec = RiskSpec(0.4, 2.0)
        problem = min_risk_problem(s, bench, 3.0, spec)
        thresholds = [float(t) for t in bench.outcomes]
        w1, q1, d1 = newton_refine(problem, PortfolioWeights.equal(2), thresholds, SolverConfig())
        assert d1.converged
        w2, q2, d2 = newton_refine(problem, w1, thresholds, SolverConfig(), q0=q1)
        assert max(d2.stage_iterations) <= 3
        assert np.abs(w2.weights - w1.weights).max() <= 1e-10

    def test_external_kkt_recheck(self):
        returns = np.array([[1.0, 2.0, 3.0, 0.5], [0.2, 1.0, 0.4, 0.1]])
        s = ScenarioSet(returns)
        bench = DiscreteRandomVariable([-5.0, -4.0], [0.5, 0.5])
        cfg = SolverConfig()
        problem = max_return_problem(s, bench, 2.0)
        thresholds = [float(t) for t in bench.outcomes]
        w, q, diag = newton_refine(problem, PortfolioWeights.equal(2), thresholds, cfg)
        if diag.converged:
            assert kkt_residual(problem, w, thresholds, diag, q) <= cfg.newton_tol


    @pytest.mark.parametrize("beta, r, order", [(0.5, 2.0, 4.7), (0.95, 1.0, 2.0), (0.3, 1.5, 3.0)])
    def test_external_kkt_recheck_lifted_risk(self, demo, demo_benchmark, beta, r, order):
        problem = min_risk_problem(demo, demo_benchmark, order, RiskSpec(beta, r))
        thresholds = [float(t) for t in np.unique(demo_benchmark.outcomes)]
        w, q, diag = newton_refine(problem, PortfolioWeights.equal(demo.d), thresholds, CFG)
        assert diag.converged
        assert kkt_residual(problem, w, thresholds, diag, q) <= CFG.newton_tol


class TestMaxReturnDriver:
    def test_rejects_low_order(self, demo, demo_benchmark):
        with pytest.raises(DomainError):
            optimize_max_return(demo, demo_benchmark, 1.5)

    def test_benchmark_feasibility_floor(self, demo, demo_benchmark):
        report = optimize_max_return(demo, demo_benchmark, 3.0, CFG)
        assert not report.infeasible
        assert report.expected_return >= report.benchmark_return - 1e-8

    def test_fresh_verify_contract(self, demo, demo_benchmark):
        cfg = CFG
        report = optimize_max_return(demo, demo_benchmark, 3.0, cfg)
        cert = verify(
            portfolio_return_variable(demo, report.weights), demo_benchmark, 3.0,
            cfg.constraint_tol,
        )
        assert max(0.0, cert.worst_gap) <= cfg.constraint_tol
        assert report.dominance_residual == pytest.approx(max(0.0, cert.worst_gap), abs=1e-15)
        assert report.simplex_residual <= 1e-6

    def test_single_asset(self):
        s = ScenarioSet(np.array([[1.0, 2.0, 3.0]]))
        bench = portfolio_return_variable(s, PortfolioWeights([1.0]))
        report = optimize_max_return(s, bench, 2.0)
        assert np.allclose(report.weights.weights, [1.0])
        assert report.expected_return == pytest.approx(2.0, abs=1e-12)
        assert not report.infeasible

    def test_objective_below_unconstrained_max(self, demo, demo_benchmark):
        report = optimize_max_return(demo, demo_benchmark, 4.0, CFG)
        best_single = float(demo.mean_returns().max())
        assert report.expected_return <= best_single + 1e-8

    def test_two_asset_grid_oracle(self):
        rng = np.random.default_rng(17)
        for k in range(4):
            s, bench, wb = two_asset_instance(rng, slack=0.0 if k % 2 else 0.05)
            oracle = max_return_grid_search(
                s.returns, s.scenario_probabilities, bench.outcomes, bench.probabilities,
                extra_candidates=wb,
            )
            report = optimize_max_return(s, bench, 2.0, CFG)
            assert oracle is not None
            assert not report.infeasible
            assert report.expected_return == pytest.approx(oracle[0], abs=1e-3)

    def test_infeasible_when_benchmark_unattainable(self):
        s = ScenarioSet(np.array([[1.0, 2.0], [0.5, 1.5]]))
        bench = DiscreteRandomVariable([50.0, 51.0], [0.5, 0.5])
        report = optimize_max_return(s, bench, 2.0, CFG)
        assert report.infeasible
        assert report.weights is None
        assert report.objective_value is None
        assert "least violated gap" in report.message

    def test_constraint_budget_respected(self):
        s = ScenarioSet(np.array([[1.0, 2.0], [0.5, 1.5]]))
        bench = DiscreteRandomVariable([50.0, 51.0], [0.5, 0.5])
        cfg = SolverConfig(max_generated_constraints=3)
        report = optimize_max_return(s, bench, 2.0, cfg)
        assert report.infeasible

    def test_budget_counts_only_generated_thresholds(self):
        # 60 benchmark atoms exceed the 50-threshold budget on their own
        s = ScenarioSet(factor_model(np.random.default_rng(1), 4, 60))
        bench = equal_weight_benchmark(s)
        assert bench.n_atoms >= 60
        order2 = optimize_max_return(s, bench, 2.0, CFG)
        order3 = optimize_max_return(s, bench, 3.0, CFG)
        # order-2 dominance implies order-3 dominance
        assert order3.expected_return >= order2.expected_return - 1e-8

    def test_tiny_benchmark_moment_keeps_an_interior(self):
        # the lowest order-4.7 cut has a benchmark moment far below 1e-9
        s = ScenarioSet(sweep_instance(6))
        bench = equal_weight_benchmark(s)
        order2 = optimize_max_return(s, bench, 2.0, CFG)
        order47 = optimize_max_return(s, bench, 4.7, CFG)
        assert order47.expected_return >= order2.expected_return - 1e-8

    def test_unconverged_report_gives_reason(self, demo, demo_benchmark):
        report = optimize_max_return(demo, demo_benchmark, 3.0, CFG)
        assert report.converged or report.message
        starved = optimize_max_return(demo, demo_benchmark, 2.0, SolverConfig(newton_max_iter=1))
        assert not starved.converged and not starved.infeasible
        assert "above newton_tol" in starved.message
        text = render_text(starved, order=2.0, verbose=True)
        assert f"Reason: {starved.message}" in text

    def test_deterministic_reports(self, demo, demo_benchmark):
        a = optimize_max_return(demo, demo_benchmark, 4.0, CFG)
        b = optimize_max_return(demo, demo_benchmark, 4.0, CFG)
        assert np.array_equal(a.weights.weights, b.weights.weights)
        assert a.expected_return == b.expected_return
        assert a.active_thresholds == b.active_thresholds
        assert a.iterations == b.iterations

    def test_active_thresholds_ordering(self, demo, demo_benchmark):
        report = optimize_max_return(demo, demo_benchmark, 4.0, CFG)
        assert len(report.active_thresholds) >= 1
        port = portfolio_return_variable(demo, report.weights)
        cert = verify(port, demo_benchmark, 4.0, 1e-8)
        assert report.active_thresholds[0] == pytest.approx(cert.worst_t)


class TestMinRiskDriver:
    def test_supports_fractional_order(self, demo, demo_benchmark):
        report = optimize_min_risk(demo, demo_benchmark, 4.7, RiskSpec(0.5, 2.0), CFG)
        assert not report.infeasible
        assert report.risk_value is not None
        assert report.q_star is not None
        assert report.dominance_residual <= 1e-8

    def test_qstar_consistent_with_inner_minimization(self, demo, demo_benchmark):
        spec = RiskSpec(0.5, 2.0)
        report = optimize_min_risk(demo, demo_benchmark, 4.0, spec, CFG)
        rv = higher_order_risk(portfolio_return_variable(demo, report.weights), spec)
        assert abs(report.q_star - rv.q_star) <= 1e-6
        assert report.risk_value == pytest.approx(rv.rho, abs=1e-10)

    def test_beta_zero_r_one_matches_max_return(self):
        rng = np.random.default_rng(7)
        returns = np.round(rng.normal(0.1, 1.0, (3, 8)), 2)
        s = ScenarioSet(returns)
        bench = portfolio_return_variable(s, PortfolioWeights.equal(3))
        risk_report = optimize_min_risk(s, bench, 2.0, RiskSpec(0.0, 1.0), CFG)
        ret_report = optimize_max_return(s, bench, 2.0, CFG)
        assert risk_report.risk_value == pytest.approx(-ret_report.expected_return, abs=1e-6)
        assert np.abs(
            risk_report.weights.weights - ret_report.weights.weights
        ).max() <= 1e-6

    @pytest.mark.parametrize("beta, lp_value", [
        (0.3, 0.179413), (0.5, 0.503926), (0.9, 1.164210), (0.95, 1.315843),
    ])
    def test_cvar_matches_lp_oracle(self, demo, demo_benchmark, beta, lp_value):
        oracle = cvar_order2_lp(demo.returns, demo.scenario_probabilities,
                                demo_benchmark.outcomes, demo_benchmark.probabilities, beta)
        assert oracle == pytest.approx(lp_value, abs=1e-6)
        report = optimize_min_risk(demo, demo_benchmark, 2.0, RiskSpec(beta, 1.0), CFG)
        assert report.risk_value == pytest.approx(oracle, abs=1e-6)

    def test_requires_risk_spec(self, demo, demo_benchmark):
        with pytest.raises(DomainError):
            optimize_min_risk(demo, demo_benchmark, 3.0, None, CFG)


NEVER_RAISE_CASES = {
    # barrier iterates that drifted off the simplex once raised DomainError
    "factor-13-2-order2": (lambda: factor_model(np.random.default_rng([13, 2]), 20, 120), 2.0, None),
    "factor-2502-order3": (lambda: factor_model(np.random.default_rng(2502), 20, 120), 3.0, None),
    # a NaN polish matrix once raised LinAlgError
    "sweep-2-r3": (lambda: sweep_instance(2), 4.7, RiskSpec(0.8, 3.0)),
    "sweep-14-r3": (lambda: sweep_instance(14), 4.7, RiskSpec(0.8, 3.0)),
    "sweep-21-r3": (lambda: sweep_instance(21), 4.7, RiskSpec(0.8, 3.0)),
    # an empty risk tail at the optimum (zero r-norm)
    "sweep-12-r3": (lambda: sweep_instance(12), 4.7, RiskSpec(0.8, 3.0)),
}


@pytest.mark.parametrize("case", sorted(NEVER_RAISE_CASES))
def test_valid_input_never_raises(case):
    make_returns, order, spec = NEVER_RAISE_CASES[case]
    s = ScenarioSet(make_returns())
    bench = equal_weight_benchmark(s)
    if spec is None:
        report = optimize_max_return(s, bench, order, CFG)
    else:
        report = optimize_min_risk(s, bench, order, spec, CFG)
    assert not report.infeasible          # the benchmark itself is feasible
    assert report.dominance_residual <= CFG.constraint_tol
    assert report.simplex_residual <= 1e-6
    assert report.converged or report.message


def test_empty_tail_report_names_the_cause():
    # with 16 equally likely scenarios, (1 / (1 - beta)) p^(1/3) > 1, so
    # the risk is the worst loss and the optimum has no tail beyond q
    make_returns, order, spec = NEVER_RAISE_CASES["sweep-12-r3"]
    s = ScenarioSet(make_returns())
    report = optimize_min_risk(s, equal_weight_benchmark(s), order, spec, CFG)
    port = portfolio_return_variable(s, report.weights)
    largest_loss = float(spec.losses(port.outcomes).max())
    assert abs(report.risk_value - largest_loss) <= 1e-9 * max(1.0, abs(report.risk_value))
    assert not report.converged
    assert "empty tail" in report.message
    assert "no gradient" in report.message
    assert "above newton_tol" not in report.message
