"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the
criterion lines as they pass.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from stochdom import (
    DiscreteRandomVariable,
    PortfolioWeights,
    RiskSpec,
    ScenarioSet,
    critical_thresholds,
    demo_scenarios,
    dominance_gap_at,
    mean,
    optimize_max_return,
    optimize_min_risk,
    portfolio_return_variable,
    risk_gradient_in_weights,
    verify,
    write_demo_csv,
)
from stochdom.cli import EXIT_OK, main
from tests.conftest import random_variable
from tests.oracles import (
    cvar_sorted_tail,
    dense_grid_gap_max,
    max_return_grid_search,
    phi_direct,
)
from tests.test_risk import risk_of_losses

GOLDEN_Y = ([3, 5, 7, 9, 11], [0.15, 0.25, 0.30, 0.20, 0.10])
GOLDEN_X = ([2, 4, 6, 8, 10], [0.10, 0.30, 0.30, 0.20, 0.10])

# converged reports accumulated across criteria, checked by criterion 4
_CONVERGED_RUNS: list = []


def _record(report) -> None:
    if not report.infeasible and report.converged:
        _CONVERGED_RUNS.append(report)


def _ok(n: int, text: str) -> None:
    print(f"\n[criterion {n}] PASS: {text}")


def test_criterion_1_golden_verification(tmp_path, capsys):
    y_path, x_path = tmp_path / "y.csv", tmp_path / "x.csv"
    for path, (outs, prs) in ((y_path, GOLDEN_Y), (x_path, GOLDEN_X)):
        rows = "\n".join(f"{o},{p}" for o, p in zip(outs, prs))
        path.write_text(f"outcome,probability\n{rows}\n", encoding="utf-8")

    start = time.perf_counter()
    code = main(["verify", "--y", str(y_path), "--x", str(x_path), "--order", "2"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "Y dominates X in stochastic order 2" in out
    assert elapsed < 1.0

    grid_max = dense_grid_gap_max(
        np.array(GOLDEN_Y[0], float), np.array(GOLDEN_Y[1], float),
        np.array(GOLDEN_X[0], float), np.array(GOLDEN_X[1], float), 2.0,
    )
    assert grid_max <= 1e-12
    _ok(1, f"CLI verdict in {elapsed * 1e3:.0f} ms; brute-force gap max {grid_max:.2e} <= 1e-12")


def test_criterion_2_demo_max_return_order_4():
    s = demo_scenarios()
    bench = portfolio_return_variable(s, PortfolioWeights.equal(s.d))
    start = time.perf_counter()
    report = optimize_max_return(s, bench, 4.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert not report.infeasible
    assert report.benchmark_return == pytest.approx(0.125, abs=1e-3)
    assert report.expected_return == pytest.approx(0.304, abs=0.02)
    assert report.weights.weights[1] == pytest.approx(0.498, abs=0.05)
    assert report.dominance_residual <= 1e-8
    _record(report)
    _ok(2, (
        f"expected return {report.expected_return:.4f} (target 0.304 +/- 0.02), "
        f"asset 2 weight {report.weights.weights[1]:.4f} (target 0.498 +/- 0.05), "
        f"dominance residual {report.dominance_residual:.2e}, {elapsed:.1f} s"
    ))


def test_criterion_3_demo_min_risk_order_4p7():
    s = demo_scenarios()
    bench = portfolio_return_variable(s, PortfolioWeights.equal(s.d))
    report = optimize_min_risk(s, bench, 4.7, RiskSpec(beta=0.5, r=2.0))
    assert not report.infeasible
    w = report.weights.weights
    assert int(np.argmax(w)) == 1          # asset 2 holds the largest allocation
    assert w[3] <= w.min() + 1e-12         # asset 4 holds the smallest
    assert report.dominance_residual <= 1e-8
    _record(report)
    # the published chart quotes 0.97%/1.167% without defining the
    # functional; both candidate readings are reported, not asserted
    _ok(3, (
        f"largest weight on asset 2 ({w[1]:.3f}), smallest on asset 4 ({w[3]:.3f}); "
        f"reported risk value {report.risk_value:.4f}, expected return "
        f"{report.expected_return:.4f}, benchmark {report.benchmark_return:.4f}"
    ))


def test_criterion_4_residual_contract():
    # add two fresh small runs to whatever earlier criteria recorded
    rng = np.random.default_rng(404)
    for _ in range(2):
        s = ScenarioSet(np.round(rng.normal(0.3, 1.0, (3, 9)), 2))
        bench = portfolio_return_variable(s, PortfolioWeights.equal(3))
        _record(optimize_max_return(s, bench, 2.0))
    assert _CONVERGED_RUNS, "no converged runs were collected"
    for report in _CONVERGED_RUNS:
        assert report.simplex_residual <= 1e-6
        assert report.dominance_residual <= 1e-8
    _ok(4, f"{len(_CONVERGED_RUNS)} converged runs all satisfy simplex <= 1e-6 and dominance <= 1e-8")


def test_criterion_5_dominance_property_suite():
    rng = np.random.default_rng(505)
    orders = [2.0, 2.5, 3.0, 4.0, 4.7]
    worst = 0.0
    for trial in range(500):
        p = orders[trial % len(orders)]
        # moderate outcome scale plus ordered means keep the gap maxima
        # well inside the range where a 1e-9 absolute comparison is
        # meaningful at double precision (tail growth is t^(p-2) scaled
        # by the moment differences)
        y = random_variable(rng, scale=0.5)
        xr = random_variable(rng, scale=0.5)
        delta = mean(xr) - mean(y)
        x = DiscreteRandomVariable(xr.outcomes - max(delta, 0.0), xr.probabilities)
        ts = critical_thresholds(y, x, p)
        crit = max(dominance_gap_at(y, x, p, float(t)) for t in ts)
        grid = dense_grid_gap_max(
            y.outcomes, y.probabilities, x.outcomes, x.probabilities, p,
            n_points=10**6,
        )
        worst = max(worst, abs(crit - grid))
        assert crit == pytest.approx(grid, abs=1e-9)

    for _ in range(100):
        z = random_variable(rng)
        for p in (2.0, 3.0, 4.7):
            cert = verify(z, z, p)
            assert cert.dominates and cert.worst_gap == 0.0

    monotone_checked = 0
    for _ in range(120):
        x = random_variable(rng)
        y = DiscreteRandomVariable(
            x.outcomes + float(rng.uniform(0.0, 0.8)), x.probabilities
        )
        for p in (2.0, 3.0):
            if verify(y, x, p).dominates:
                assert verify(y, x, p + 1.0).dominates
                monotone_checked += 1
    assert monotone_checked >= 50
    _ok(5, (
        f"500 pairs matched the 1e6-point grid oracle (worst diff {worst:.2e}); "
        f"100 self-dominance checks passed; {monotone_checked} integer-order "
        f"monotonicity implications held"
    ))


def test_criterion_6_risk_property_suite():
    rng = np.random.default_rng(606)

    def sample_spec():
        return RiskSpec(
            beta=float(rng.uniform(0.05, 0.95)),
            r=float(rng.choice([1.0, 1.5, 2.0, 3.0])),
        )

    for _ in range(200):
        n = int(rng.integers(2, 10))
        v = DiscreteRandomVariable(np.round(rng.normal(0, 2, n), 3), rng.dirichlet(np.ones(n)))
        spec = sample_spec()
        rho = risk_of_losses(v, spec).rho
        c = float(rng.normal(0, 1.5))
        shifted = DiscreteRandomVariable(v.outcomes + c, v.probabilities)
        assert risk_of_losses(shifted, spec).rho == pytest.approx(rho + c, abs=1e-9)
        a = float(rng.uniform(0.2, 4.0))
        scaled = DiscreteRandomVariable(a * v.outcomes, v.probabilities)
        assert risk_of_losses(scaled, spec).rho == pytest.approx(a * rho, abs=1e-9, rel=1e-9)
        bump = rng.uniform(0.0, 1.0, v.n_atoms)
        worse = DiscreteRandomVariable(v.outcomes + bump, v.probabilities)
        assert risk_of_losses(worse, spec).rho >= rho - 1e-9

    for _ in range(200):
        n = int(rng.integers(2, 10))
        v = DiscreteRandomVariable(np.round(rng.normal(0, 2, n), 3), rng.dirichlet(np.ones(n)))
        beta = float(rng.uniform(0.0, 0.95))
        got = risk_of_losses(v, RiskSpec(beta, 1.0)).rho
        assert got == pytest.approx(cvar_sorted_tail(v.outcomes, v.probabilities, beta), abs=1e-9)

    checked = 0
    while checked < 100:
        d = int(rng.integers(2, 5))
        n = int(rng.integers(5, 12))
        s = ScenarioSet(np.round(rng.normal(0.3, 1.2, (d, n)), 3))
        w = rng.dirichlet(np.ones(d))
        spec = RiskSpec(float(rng.uniform(0.05, 0.9)), float(rng.choice([1.0, 1.5, 2.0, 3.0])))
        losses = spec.losses(w @ s.returns)
        q = float(rng.uniform(losses.min() - 0.5, losses.max()))
        if np.abs(losses - q).min() < 1e-3 or not (losses > q).any():
            continue
        grad = risk_gradient_in_weights(s, PortfolioWeights(w), q, spec)
        h = 1e-6
        fd = np.empty(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            up = phi_direct(spec.losses((w + e) @ s.returns), s.scenario_probabilities, spec.beta, spec.r, q)
            dn = phi_direct(spec.losses((w - e) @ s.returns), s.scenario_probabilities, spec.beta, spec.r, q)
            fd[i] = (up - dn) / (2 * h)
        assert np.abs(grad - fd).max() / max(1.0, float(np.abs(fd).max())) < 1e-5
        checked += 1
    _ok(6, "coherence axioms (200 vectors), sorted-tail CVaR (200), gradient vs central differences (100)")


def test_criterion_7_small_instance_optimizer_oracle():
    rng = np.random.default_rng(707)
    worst_gap_to_oracle = 0.0
    for k in range(20):
        n = int(rng.integers(6, 14))
        s = ScenarioSet(np.round(rng.normal(0.2, 1.0, (2, n)), 2))
        wb = rng.dirichlet(np.ones(2))
        port = portfolio_return_variable(s, PortfolioWeights(wb))
        slack = 0.05 if k % 2 else 0.0
        bench = DiscreteRandomVariable(port.outcomes - slack, port.probabilities)
        oracle = max_return_grid_search(
            s.returns, s.scenario_probabilities, bench.outcomes, bench.probabilities,
            extra_candidates=wb,
        )
        report = optimize_max_return(s, bench, 2.0)
        assert oracle is not None
        assert not report.infeasible
        assert report.expected_return == pytest.approx(oracle[0], abs=1e-3)
        assert report.expected_return >= report.benchmark_return - 1e-8
        worst_gap_to_oracle = max(worst_gap_to_oracle, abs(report.expected_return - oracle[0]))
        _record(report)
    _ok(7, f"20 two-asset instances within 1e-3 of grid search (worst {worst_gap_to_oracle:.2e}); benchmark floor held")


def test_criterion_8_determinism(tmp_path):
    data = tmp_path / "returns.csv"
    write_demo_csv(data)
    outputs = []
    for tag in ("a", "b"):
        jpath = tmp_path / f"{tag}.json"
        ppath = tmp_path / f"{tag}.svg"
        code = main([
            "max-return", "--data", str(data), "--order", "4", "--seed", "42",
            "--json", str(jpath), "--plot", str(ppath),
        ])
        assert code == EXIT_OK
        outputs.append((jpath.read_bytes(), ppath.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    payload = json.loads(outputs[0][0])
    assert payload["seed"] == 42
    _ok(8, "two seeded runs produced byte-identical JSON and SVG outputs")
