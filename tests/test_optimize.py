from __future__ import annotations

import inspect

import numpy as np
import pytest

from stochdom import (
    DiscreteRandomVariable,
    DomainError,
    PortfolioWeights,
    RiskSpec,
    ScenarioSet,
    higher_order_risk,
    lower_partial_moment,
    optimize_max_return,
    optimize_min_risk,
    portfolio_return_variable,
    verify,
    write_demo_csv,
)
from stochdom import optimize
from stochdom.cli import EXIT_USAGE, main
from stochdom.dominance import DEFAULT_VERIFY_TOL
from stochdom.report import render_text
from tests.oracles import (
    cvar_order2_lp,
    max_return_grid_search,
    max_return_order2_lp,
    min_risk_grid_search,
    order2_feasible_lp,
)
from tests.parity_sweep import (
    factor_returns,
    parity,
    solver_changes,
    summarize,
    sweep_instance,
    uneven_returns,
)


def factor_model(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """Assets x scenarios returns: one market factor plus fat-tailed noise."""
    market = rng.normal(0.04, 1.0, n)
    beta = rng.uniform(0.6, 1.4, d)
    alpha = rng.normal(0.02, 0.05, d)
    vol = rng.uniform(0.5, 1.5, d)
    return alpha[:, None] + beta[:, None] * market[None, :] + vol[:, None] * rng.standard_t(6, (d, n))


def equal_weight_benchmark(s: ScenarioSet) -> DiscreteRandomVariable:
    return portfolio_return_variable(s, PortfolioWeights.equal(s.d))


def shifted_benchmark(s: ScenarioSet, shift: float) -> DiscreteRandomVariable:
    """The equal-weight benchmark with every outcome raised by shift."""
    bench = equal_weight_benchmark(s)
    return DiscreteRandomVariable(bench.outcomes + shift, bench.probabilities)


def two_asset_instance(rng: np.random.Generator, slack: float = 0.0):
    n = int(rng.integers(6, 14))
    returns = np.round(rng.normal(0.2, 1.0, (2, n)), 2)
    s = ScenarioSet(returns)
    wb = rng.dirichlet(np.ones(2))
    port = portfolio_return_variable(s, PortfolioWeights(wb))
    # optional downward shift widens the feasible region around wb
    bench = DiscreteRandomVariable(port.outcomes - slack, port.probabilities)
    return s, bench, wb


class TestTolerance:
    def test_defaults(self):
        assert DEFAULT_VERIFY_TOL == 1e-8
        for fn in (optimize_max_return, optimize_min_risk):
            assert inspect.signature(fn).parameters["tol"].default == DEFAULT_VERIFY_TOL
        assert optimize.NEWTON_MAX_ITER == 100
        assert optimize.NEWTON_TOL == 1e-10
        assert optimize.MAX_GENERATED_CONSTRAINTS == 50
        assert optimize.CUTS_PER_ROUND == 10

    def test_validation(self, demo, demo_benchmark, tmp_path):
        for tol in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                optimize_max_return(demo, demo_benchmark, 2.0, tol=tol)
            with pytest.raises(DomainError):
                optimize_min_risk(demo, demo_benchmark, 2.0, RiskSpec(0.5, 1.0), tol=tol)
        data = tmp_path / "returns.csv"
        write_demo_csv(data)
        assert main(["max-return", "--data", str(data), "--order", "2", "--tol", "0"]) == EXIT_USAGE


class TestNewtonRefine:
    def test_inactive_cuts_give_best_vertex(self):
        returns = np.array([[1.0, 2.0, 3.0, 0.5], [0.2, 1.0, 0.4, 0.1], [0.5, 0.3, 0.2, 0.9]])
        s = ScenarioSet(returns)
        bench = DiscreteRandomVariable([-10.0, -9.0], [0.5, 0.5])
        cuts = [(float(t), None) for t in bench.outcomes[1:]]
        w, q, res = optimize.newton_refine(s, bench, 3.0, None, cuts, 1e-8)
        best = int(np.argmax(s.mean_returns()))
        expected = np.zeros(3)
        expected[best] = 1.0
        assert q is None
        assert np.abs(w.weights - expected).max() <= 1e-8
        assert res.converged and res.message is None

    def test_iteration_limit_names_the_stop(self, demo, demo_benchmark, monkeypatch):
        monkeypatch.setattr(optimize, "NEWTON_MAX_ITER", 2)
        cuts = [(float(t), None) for t in demo_benchmark.outcomes[1:]]
        spec = RiskSpec(0.5, 2.0)
        _, q, res = optimize.newton_refine(demo, demo_benchmark, 4.7, spec, cuts, 1e-8)
        assert q is not None and res.iterations == 2
        assert not res.converged
        assert "iteration limit" in res.message and "above NEWTON_TOL" in res.message

    def test_message_names_the_residuals_above_tolerance(self):
        # the dominance-feasible set has no interior here, so multipliers need
        # not exist: the primal residual and the duality gap certify, the dual
        # residual stalls near 3.3e-6
        s = ScenarioSet(sweep_instance(12))
        bench = equal_weight_benchmark(s)
        cuts = [(float(t), None) for t in bench.outcomes[1:]]
        _, _, res = optimize.newton_refine(s, bench, 2.5, RiskSpec(0.2, 1.5), cuts, 1e-8)
        assert not res.converged
        assert "with dual residual above NEWTON_TOL" in res.message


def every_atom_cuts(s: ScenarioSet, bench: DiscreteRandomVariable, p: float, x: np.ndarray) -> list:
    """A cut at every benchmark atom above the lowest, each subset tight at the weights x at order 2."""
    out = x @ s.returns
    return [(float(t), out < t if p == 2.0 else None) for t in bench.outcomes[1:]]


class TestModel:
    """One round's rows, their derivatives and the slack that the infeasibility proof relies on."""

    def test_slack_bounds_the_dominance_rows_of_verified_weights(self, demo, demo_benchmark):
        # the proof of `_ipm` needs lam.g(z) <= lam.slack at every z that passes verify
        instances = [(demo, demo_benchmark)]
        for k in range(6):
            s = ScenarioSet(sweep_instance(k))
            instances.append((s, equal_weight_benchmark(s)))
        checked = 0
        for s, bench in instances:
            for p in (2.0, 2.5, 3.0, 4.7):
                for rep in (optimize_max_return(s, bench, p),
                            optimize_min_risk(s, bench, p, RiskSpec(0.5, 2.0))):
                    if not rep.converged:
                        continue
                    x = rep.weights.weights
                    model = optimize._Model(s, bench, p, None, every_atom_cuts(s, bench, p, x),
                                            DEFAULT_VERIFY_TOL)
                    g, _ = model.rows(x)
                    assert model.slack.size == model.mc
                    assert np.all(g[: model.mc] <= model.slack)
                    checked += 1
        assert checked >= 50

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.7])
    @pytest.mark.parametrize("spec", [None, RiskSpec(0.5, 1.0), RiskSpec(0.5, 2.0)],
                             ids=["max-return", "r1", "r2"])
    def test_jacobian_and_hessian_match_central_differences(self, demo, demo_benchmark, p, spec):
        rng = np.random.default_rng(int(10 * p))
        x = rng.dirichlet(np.ones(demo.d))
        model = optimize._Model(demo, demo_benchmark, p, spec,
                                every_atom_cuts(demo, demo_benchmark, p, x), DEFAULT_VERIFY_TOL)
        y = x
        if spec is not None:
            y = np.concatenate([x, [0.1], rng.uniform(0.5, 1.5, demo.n), [2.0] if spec.r > 1.0 else []])
        assert y.size == model.N
        lam = rng.uniform(0.5, 1.5, model.m)
        g, J = model.rows(y)
        H = model.hess(y, lam)
        assert g.shape == (model.m,) and J.shape == (model.m, model.N)
        h = 1e-6
        fd_J, fd_H = np.empty_like(J), np.empty_like(H)
        for i in range(y.size):
            e = np.zeros(y.size)
            e[i] = h
            (g_up, J_up), (g_down, J_down) = model.rows(y + e), model.rows(y - e)
            fd_J[:, i] = (g_up - g_down) / (2.0 * h)
            fd_H[:, i] = (lam @ J_up - lam @ J_down) / (2.0 * h)
        assert np.abs(fd_J - J).max() <= 1e-5 * max(1.0, np.abs(J).max())
        assert np.abs(fd_H - H).max() <= 1e-5 * max(1.0, np.abs(H).max())


def full_newton_system(model, it, J, H, res, comp):
    """The Newton system of `optimize._direction` built whole, before any row is eliminated:
    the matrix over (y, dense-row multipliers, nu) and its right-hand side."""
    d, N, m, B = model.d, model.N, model.m, model.bounded
    yb = it.y[B]
    K = np.zeros((N + m + 1, N + m + 1))
    K[:N, :N] = H
    K[B, B] += it.zb / yb
    K[:N, N : N + m] = J.T
    K[N : N + m, :N] = J
    K[N + np.arange(m), N + np.arange(m)] = -it.w / it.lam
    K[:d, -1] = K[-1, :d] = 1.0
    ry, rp, re = res
    rhs = np.concatenate([-ry, comp[B.size :] / it.lam - rp, [-re]])
    rhs[B] -= comp[: B.size] / yb
    return K, rhs


class TestReducedNewton:
    """The direction from the reduced factor solves the full Newton system, and large models converge."""

    @pytest.mark.parametrize("data", ["demo", "synthetic"])
    @pytest.mark.parametrize("p, spec", [(2.0, None), (3.0, None), (4.7, None),
                                         (4.7, RiskSpec(0.5, 2.0)), (2.0, RiskSpec(0.9, 1.0))])
    def test_direction_solves_the_full_system(self, data, p, spec, demo, demo_benchmark,
                                              monkeypatch):
        s = demo if data == "demo" else ScenarioSet(factor_model(np.random.default_rng(0), 20, 120))
        bench = demo_benchmark if data == "demo" else equal_weight_benchmark(s)
        direction, errors = optimize._direction, []

        def checked(model, it, J, H, res, comp, inv):
            step = direction(model, it, J, H, res, comp, inv)
            K, rhs = full_newton_system(model, it, J, H, res, comp)
            sol = np.concatenate([step.y, step.lam, step.nu])
            scale = np.abs(K).max() * np.abs(sol).max() + np.abs(rhs).max()
            errors.append(np.abs(K @ sol - rhs).max() / scale)
            return step

        monkeypatch.setattr(optimize, "_direction", checked)
        report = (optimize_max_return(s, bench, p) if spec is None
                  else optimize_min_risk(s, bench, p, spec))
        assert report.converged
        assert len(errors) == 2 * report.iterations["newton"]
        assert max(errors) <= 1e-13

    def test_refinement_keeps_an_ulp_sensitive_round_converged(self):
        # solved with the reduced inverse alone, without the refinement step, the last
        # round of this run stalls at the iteration limit with a dual residual near 1e-10
        s = ScenarioSet(sweep_instance(17))
        report = optimize_max_return(s, equal_weight_benchmark(s), 4.7)
        assert report.converged and report.message is None

    def test_large_factor_model_converges_at_every_order(self):
        # 500 floor rows, which the reduced factor eliminates
        s = ScenarioSet(factor_returns(0, 10, 500))
        bench = equal_weight_benchmark(s)
        returns = []
        for p in (2.0, 3.0, 4.7):
            report = optimize_max_return(s, bench, p)
            assert report.converged and report.message is None
            assert verify(portfolio_return_variable(s, report.weights), bench, p).dominates
            returns.append(report.expected_return)
        # dominance at a lower order implies it at every higher order
        assert returns[0] <= returns[1] + 1e-9 and returns[1] <= returns[2] + 1e-9


class TestIndependentOracles:
    """Certified solves against HiGHS LPs and a two-asset grid."""

    @pytest.mark.parametrize("k", range(22))
    def test_order2_matches_highs(self, k):
        s = ScenarioSet(sweep_instance(k))
        bench = equal_weight_benchmark(s)
        args = (s.returns, s.scenario_probabilities, bench.outcomes, bench.probabilities)
        best = optimize_max_return(s, bench, 2.0)
        assert best.converged
        assert abs(best.expected_return - max_return_order2_lp(*args)) <= 1e-9
        cvar = optimize_min_risk(s, bench, 2.0, RiskSpec(0.9, 1.0))
        assert cvar.converged
        assert abs(cvar.risk_value - cvar_order2_lp(*args, 0.9)) <= 1e-9

    # Order-2 max-return and CVaR(.9) optima of factor_returns(seed) by the
    # sparse HiGHS oracle; each LP takes 14-22 s, so they are frozen here
    # and tests/parity_sweep.py recomputes them
    FACTOR_LP = {
        0: (0.0010854329183189598, 1.1360502256950717),
        1: (-0.022326789390473188, 1.106497075565468),
        2: (0.029786501386914854, 1.2080617216718046),
    }

    @pytest.mark.parametrize("seed", range(3))
    def test_order2_factor_models(self, seed):
        # 10 assets, 250 scenarios: the solve must be certified and match the LP
        s = ScenarioSet(factor_returns(seed))
        bench = equal_weight_benchmark(s)
        best_lp, cvar_lp = self.FACTOR_LP[seed]
        best = optimize_max_return(s, bench, 2.0)
        assert best.converged, best.message
        assert abs(best.expected_return - best_lp) <= 1e-9 * max(1.0, abs(best_lp))
        cvar = optimize_min_risk(s, bench, 2.0, RiskSpec(0.9, 1.0))
        assert cvar.converged, cvar.message
        assert abs(cvar.risk_value - cvar_lp) <= 1e-9 * max(1.0, abs(cvar_lp))

    @pytest.mark.parametrize("k", range(22))
    def test_sparse_lp_matches_dense_build(self, k):
        s = ScenarioSet(sweep_instance(k))
        bench = equal_weight_benchmark(s)
        args = (s.returns, s.scenario_probabilities, bench.outcomes, bench.probabilities)
        for oracle, extra in ((max_return_order2_lp, ()), (cvar_order2_lp, (0.9,))):
            sparse, dense = oracle(*args, *extra), oracle(*args, *extra, dense=True)
            assert abs(sparse - dense) <= 1e-12

    @pytest.mark.parametrize("k", range(22))
    def test_shifted_benchmark_verdicts_match_highs(self, k):
        # raising the equal-weight benchmark by a shift can leave no dominating portfolio
        s = ScenarioSet(sweep_instance(k))
        for shift in (1e-4, 1e-3, 3e-2):
            bench = shifted_benchmark(s, shift)
            feasible = order2_feasible_lp(s.returns, s.scenario_probabilities, bench.outcomes,
                                          bench.probabilities)
            assert optimize_max_return(s, bench, 2.0).infeasible == (not feasible)
            # order-2 dominance implies order 3, so an order-3 proof needs an order-2 one
            assert not (feasible and optimize_max_return(s, bench, 3.0).infeasible)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_order3_infeasibility_certified_in_few_rounds(self, k):
        s = ScenarioSet(sweep_instance(k))
        report = optimize_max_return(s, shifted_benchmark(s, 5e-2), 3.0)
        assert report.infeasible and report.weights is None
        assert report.iterations["constraint_rounds"] <= 4
        assert "the cut multipliers give lambda.g(x) >= L" in report.message

    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    def test_two_asset_min_risk_grid(self, r):
        rng = np.random.default_rng(31)
        for k in range(3):
            s, bench, wb = two_asset_instance(rng, slack=0.0 if k % 2 else 0.05)
            spec = RiskSpec(0.5, r)
            oracle = min_risk_grid_search(
                s.returns, s.scenario_probabilities, bench.outcomes, bench.probabilities,
                spec.beta, spec.r, extra_candidates=wb,
            )
            report = optimize_min_risk(s, bench, 2.0, spec)
            assert oracle is not None and not report.infeasible
            assert report.risk_value == pytest.approx(oracle[0], abs=1e-3)
            assert report.risk_value <= oracle[0] + 1e-7


class TestMaxReturnDriver:
    def test_rejects_low_order(self, demo, demo_benchmark):
        with pytest.raises(DomainError):
            optimize_max_return(demo, demo_benchmark, 1.5)

    def test_benchmark_feasibility_floor(self, demo, demo_benchmark):
        report = optimize_max_return(demo, demo_benchmark, 3.0)
        assert not report.infeasible
        assert report.expected_return >= report.benchmark_return - 1e-8

    def test_fresh_verify_contract(self, demo, demo_benchmark):
        report = optimize_max_return(demo, demo_benchmark, 3.0)
        cert = verify(
            portfolio_return_variable(demo, report.weights), demo_benchmark, 3.0,
            DEFAULT_VERIFY_TOL,
        )
        assert max(0.0, cert.worst_gap) <= DEFAULT_VERIFY_TOL
        assert report.dominance_residual == pytest.approx(max(0.0, cert.worst_gap), abs=1e-15)
        assert report.simplex_residual <= 1e-6

    def test_single_asset(self):
        s = ScenarioSet(np.array([[1.0, 2.0, 3.0]]))
        bench = portfolio_return_variable(s, PortfolioWeights([1.0]))
        report = optimize_max_return(s, bench, 2.0)
        assert np.allclose(report.weights.weights, [1.0])
        assert report.expected_return == pytest.approx(2.0, abs=1e-12)
        assert not report.infeasible

    def test_single_asset_that_cannot_dominate_is_infeasible(self):
        s = ScenarioSet(np.array([[1.0, 2.0, 3.0]]))
        bench = DiscreteRandomVariable([5.0, 6.0], [0.5, 0.5])
        report = optimize_max_return(s, bench, 2.0)
        assert report.infeasible and not report.converged
        assert report.weights is None
        assert "least violated gap" in report.message

    def test_objective_below_unconstrained_max(self, demo, demo_benchmark):
        report = optimize_max_return(demo, demo_benchmark, 4.0)
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
            report = optimize_max_return(s, bench, 2.0)
            assert oracle is not None
            assert not report.infeasible
            assert report.expected_return == pytest.approx(oracle[0], abs=1e-3)

    def test_infeasible_when_benchmark_unattainable(self):
        s = ScenarioSet(np.array([[1.0, 2.0], [0.5, 1.5]]))
        bench = DiscreteRandomVariable([50.0, 51.0], [0.5, 0.5])
        report = optimize_max_return(s, bench, 2.0)
        assert report.infeasible
        assert report.weights is None
        assert report.objective_value is None
        assert "the cut multipliers give lambda.g(x) >= L" in report.message

    def test_constraint_budget_respected(self, demo, demo_benchmark, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_GENERATED_CONSTRAINTS", 3)
        s = ScenarioSet(np.array([[1.0, 2.0], [0.5, 1.5]]))
        bench = DiscreteRandomVariable([50.0, 51.0], [0.5, 0.5])
        report = optimize_max_return(s, bench, 2.0)
        assert report.infeasible
        # the first round's multipliers already prove it
        assert report.iterations["constraint_rounds"] == 1
        assert "the cut multipliers give lambda.g(x) >= L" in report.message
        # the demo needs 4 rounds at order 2; with a budget of 1 the second round is the last
        monkeypatch.setattr(optimize, "MAX_GENERATED_CONSTRAINTS", 1)
        starved = optimize_max_return(demo, demo_benchmark, 2.0)
        assert starved.iterations["constraint_rounds"] == 2
        assert not starved.converged and not starved.infeasible
        assert "the budget of 1 cut-adding rounds ran out" in starved.message

    def test_stop_without_proof_returns_the_last_weights(self, monkeypatch):
        # the benchmark's own weights dominate it, so nothing proves infeasibility
        monkeypatch.setattr(optimize, "MAX_GENERATED_CONSTRAINTS", 1)
        s = ScenarioSet(sweep_instance(2))
        bench = portfolio_return_variable(
            s, PortfolioWeights(np.random.default_rng(2).dirichlet(np.ones(5))))
        report = optimize_max_return(s, bench, 2.0)
        assert not report.infeasible and not report.converged
        assert "the budget of 1 cut-adding rounds ran out" in report.message
        cert = verify(portfolio_return_variable(s, report.weights), bench, 2.0, DEFAULT_VERIFY_TOL)
        assert report.dominance_residual == max(0.0, cert.worst_gap) > DEFAULT_VERIFY_TOL

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.7])
    def test_round_with_no_new_cut_stops(self, p, monkeypatch):
        # with no interior-point iteration every round returns equal weights, so the
        # second round finds only the cuts the first one added
        monkeypatch.setattr(optimize, "NEWTON_MAX_ITER", 0)
        s = ScenarioSet(sweep_instance(0))
        bench = portfolio_return_variable(
            s, PortfolioWeights(np.random.default_rng(0).dirichlet(np.ones(5))))
        report = optimize_max_return(s, bench, p)
        assert report.iterations["constraint_rounds"] == 2
        assert not report.converged and not report.infeasible
        assert ("constraint generation stopped (no new cut: every violated threshold's cut "
                "is already in the model)") in report.message
        assert report.dominance_residual > DEFAULT_VERIFY_TOL

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.7])
    def test_rounds_add_only_violated_cuts(self, p, demo, demo_benchmark, monkeypatch):
        rounds = []
        refine = optimize.newton_refine

        def spy(s, benchmark, order, spec, cuts, tol):
            out = refine(s, benchmark, order, spec, cuts, tol)
            rounds.append((list(cuts), out[0]))
            return out

        monkeypatch.setattr(optimize, "newton_refine", spy)
        report = optimize_max_return(demo, demo_benchmark, p)
        assert report.converged
        assert len(rounds) == report.iterations["constraint_rounds"] >= 2
        assert rounds[0][0] == []
        for (before, w), (after, _) in zip(rounds, rounds[1:]):
            assert [t for t, _ in after[: len(before)]] == [t for t, _ in before]
            added = after[len(before):]
            assert 1 <= len(added) <= optimize.CUTS_PER_ROUND
            port = portfolio_return_variable(demo, w)
            out = w.weights @ demo.returns
            for t, J in added:
                gap = (lower_partial_moment(port, t, p - 1.0)
                       - lower_partial_moment(demo_benchmark, t, p - 1.0))
                assert gap > DEFAULT_VERIFY_TOL
                if p == 2.0:
                    assert np.array_equal(J, out < t)
                else:
                    assert J is None

    def test_budget_counts_only_generated_thresholds(self):
        # 60 benchmark atoms exceed the 50-threshold budget on their own
        s = ScenarioSet(factor_model(np.random.default_rng(1), 4, 60))
        bench = equal_weight_benchmark(s)
        assert bench.n_atoms >= 60
        order2 = optimize_max_return(s, bench, 2.0)
        order3 = optimize_max_return(s, bench, 3.0)
        # order-2 dominance implies order-3 dominance
        assert order3.expected_return >= order2.expected_return - 1e-8

    def test_tiny_benchmark_moment_keeps_an_interior(self):
        # the lowest order-4.7 cut has a benchmark moment far below 1e-9
        s = ScenarioSet(sweep_instance(6))
        bench = equal_weight_benchmark(s)
        order2 = optimize_max_return(s, bench, 2.0)
        order47 = optimize_max_return(s, bench, 4.7)
        assert order47.expected_return >= order2.expected_return - 1e-8

    def test_unconverged_report_gives_reason(self, demo, demo_benchmark, monkeypatch):
        report = optimize_max_return(demo, demo_benchmark, 3.0)
        assert report.converged or report.message
        monkeypatch.setattr(optimize, "NEWTON_MAX_ITER", 1)
        starved = optimize_max_return(demo, demo_benchmark, 2.0)
        assert not starved.converged and not starved.infeasible
        assert "above NEWTON_TOL" in starved.message
        text = render_text(starved, order=2.0, verbose=True)
        assert f"Reason: {starved.message}" in text

    def test_deterministic_reports(self, demo, demo_benchmark):
        a = optimize_max_return(demo, demo_benchmark, 4.0)
        b = optimize_max_return(demo, demo_benchmark, 4.0)
        assert np.array_equal(a.weights.weights, b.weights.weights)
        assert a.expected_return == b.expected_return
        assert a.active_thresholds == b.active_thresholds
        assert a.iterations == b.iterations

    def test_active_thresholds_ordering(self, demo, demo_benchmark):
        report = optimize_max_return(demo, demo_benchmark, 4.0)
        assert len(report.active_thresholds) >= 1
        port = portfolio_return_variable(demo, report.weights)
        cert = verify(port, demo_benchmark, 4.0, 1e-8)
        assert report.active_thresholds[0] == pytest.approx(cert.worst_t)


class TestMinRiskDriver:
    def test_supports_fractional_order(self, demo, demo_benchmark):
        report = optimize_min_risk(demo, demo_benchmark, 4.7, RiskSpec(0.5, 2.0))
        assert not report.infeasible
        assert report.risk_value is not None
        assert report.q_star is not None
        assert report.dominance_residual <= 1e-8

    def test_qstar_consistent_with_inner_minimization(self, demo, demo_benchmark):
        spec = RiskSpec(0.5, 2.0)
        report = optimize_min_risk(demo, demo_benchmark, 4.0, spec)
        rv = higher_order_risk(portfolio_return_variable(demo, report.weights), spec)
        assert abs(report.q_star - rv.q_star) <= 1e-6
        assert report.risk_value == pytest.approx(rv.rho, abs=1e-10)

    def test_beta_zero_r_one_matches_max_return(self):
        rng = np.random.default_rng(7)
        returns = np.round(rng.normal(0.1, 1.0, (3, 8)), 2)
        s = ScenarioSet(returns)
        bench = portfolio_return_variable(s, PortfolioWeights.equal(3))
        risk_report = optimize_min_risk(s, bench, 2.0, RiskSpec(0.0, 1.0))
        ret_report = optimize_max_return(s, bench, 2.0)
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
        report = optimize_min_risk(demo, demo_benchmark, 2.0, RiskSpec(beta, 1.0))
        assert report.risk_value == pytest.approx(oracle, abs=1e-6)

    def test_single_asset_min_risk_converges_without_message(self):
        s = ScenarioSet(np.array([[1.0, -2.0, 3.0, 0.5]]))
        bench = DiscreteRandomVariable([-3.0, 0.0, 1.0], [0.3, 0.4, 0.3])
        spec = RiskSpec(0.5, 2.0)
        report = optimize_min_risk(s, bench, 3.0, spec)
        assert report.converged and report.message is None and not report.infeasible
        assert report.iterations == {"newton": 0, "constraint_rounds": 0}
        rv = higher_order_risk(portfolio_return_variable(s, report.weights), spec)
        assert report.risk_value == rv.rho

    def test_requires_risk_spec(self, demo, demo_benchmark):
        with pytest.raises(DomainError):
            optimize_min_risk(demo, demo_benchmark, 3.0, None)


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
        report = optimize_max_return(s, bench, order)
    else:
        report = optimize_min_risk(s, bench, order, spec)
    assert not report.infeasible          # the benchmark itself is feasible
    assert report.dominance_residual <= DEFAULT_VERIFY_TOL
    assert report.simplex_residual <= 1e-6
    assert report.converged or report.message


def test_max_loss_regime_converges_to_the_largest_loss():
    # with 16 equally likely scenarios, p_j^(1/3) >= 1 - beta, so the risk
    # is the largest loss for every portfolio and the solve is linear
    make_returns, order, spec = NEVER_RAISE_CASES["sweep-12-r3"]
    s = ScenarioSet(make_returns())
    report = optimize_min_risk(s, equal_weight_benchmark(s), order, spec)
    port = portfolio_return_variable(s, report.weights)
    largest_loss = float(spec.losses(port.outcomes).max())
    assert report.converged
    assert abs(report.risk_value - largest_loss) <= 1e-9


def uneven_instance(seed: int) -> ScenarioSet:
    """Small random returns with Dirichlet(0.5) scenario probabilities."""
    return ScenarioSet(*uneven_returns(seed))


def test_empty_tail_optimum_converges():
    # uneven probabilities: outside the max-loss regime, yet the optimum has
    # no tail beyond q; the perspective row eta >= ||u||_{r,p} is smooth there
    s, spec = uneven_instance(11), RiskSpec(0.8, 3.0)
    assert s.scenario_probabilities.min() ** (1.0 / spec.r) < 1.0 - spec.beta
    report = optimize_min_risk(s, equal_weight_benchmark(s), 4.7, spec)
    port = portfolio_return_variable(s, report.weights)
    largest_loss = float(spec.losses(port.outcomes).max())
    assert report.converged and report.message is None
    assert abs(report.risk_value - largest_loss) <= 1e-9


def test_demo_sweep_never_raises_and_mostly_converges(demo, demo_benchmark):
    unconverged = []
    for order in (2.0, 2.5, 3.0, 4.0, 4.7):
        for beta in (0.0, 0.5, 0.9):
            for r in (1.0, 2.0, 3.0):
                report = optimize_min_risk(demo, demo_benchmark, order, RiskSpec(beta, r))
                assert not report.infeasible
                assert report.converged or report.message
                if not report.converged:
                    unconverged.append((order, beta, r))
    assert len(unconverged) <= 1, unconverged


def test_parity_compares_every_field_and_scores_bit_for_bit():
    rec = {"column": "demo", "instance": "2/0/1", "converged": True, "infeasible": False,
           "newton": 12, "rounds": 2, "message": None, "score": 0.1}
    other = {**rec, "instance": "3/0/1"}
    nudged = float(np.nextafter(0.1, 1.0))
    lines = parity([rec, {**other, "newton": 13, "score": nudged}], [rec, other])
    assert lines[0].startswith("1 of 2 runs match the baseline in every field")
    assert lines[1:] == [f"  demo 3/0/1: newton 12 -> 13; score 0.1 -> {nudged!r}"]


def test_parity_compares_verify_records_in_every_field():
    rec = {"column": "verify p3", "instance": 0, "dominates": False, "worst_t": 1.5,
           "worst_gap": 0.25, "upper_bound": float("inf"), "binding": "mean", "checked_points": 7}
    assert parity([rec], [dict(rec)])[0].startswith("1 of 1 runs match")
    lines = parity([{**rec, "checked_points": 8}], [rec])
    assert lines[1:] == ["  verify p3 0: checked_points 7 -> 8"]


def test_summarize_tallies_shifted_objectives_against_the_baseline():
    rec = {"column": "shifted max-return p3", "instance": "12/0.001", "converged": True,
           "infeasible": False, "newton": 40, "rounds": 3, "message": None, "score": -1.0}
    base = [rec, {**rec, "instance": "9/0.001"}, {**rec, "instance": "1/0.001"}]
    runs = [{**rec, "score": -1.0 - 2e-9}, {**base[1], "score": -1.0 + 3e-9},
            {**base[2], "score": -1.0 + 5e-10}]
    (line,) = summarize(runs, base)
    assert line.endswith("| baseline infeasible  0 converged  3 unconverged  0 rounds    9;"
                         " better/equal/worse 1/1/1")
    assert "better/equal/worse" not in summarize(runs, None)[0]


def test_solver_changes_lists_flags_newton_counts_and_moved_objectives():
    rec = {"column": "max-return p3", "instance": 4, "converged": True, "infeasible": False,
           "newton": 40, "rounds": 3, "message": None, "score": -0.5}
    base = [rec, *({**rec, "instance": k} for k in (5, 6, 7, 8)),
            {"column": "verify p3", "instance": 0, "dominates": True}]
    runs = [{**rec, "score": -0.5 - 4e-11},                                  # within 1e-10
            {**base[1], "converged": False, "newton": 100, "rounds": 4},
            {**base[2], "newton": 41},
            {**base[3], "score": -0.5 + 2e-10},
            {**base[4], "infeasible": True, "score": None},
            {**base[5], "dominates": False}]
    lines = solver_changes(runs, base)
    assert lines[0].startswith("4 optimizer runs changed")
    assert lines[1:] == [
        "  max-return p3 5: converged True -> False; newton 40 -> 100; rounds 3 -> 4",
        "  max-return p3 6: newton 40 -> 41; rounds 3 -> 3",
        f"  max-return p3 7: score -0.5 -> {-0.5 + 2e-10!r}; rounds 3 -> 3",
        "  max-return p3 8: infeasible False -> True; score -0.5 -> None; rounds 3 -> 3",
    ]
