from __future__ import annotations

import numpy as np
import pytest

from stochdom import (
    DimensionError,
    DiscreteRandomVariable,
    DomainError,
    PortfolioWeights,
    RiskSpec,
    RiskValue,
    ScenarioSet,
    demo_scenarios,
    higher_order_risk,
    portfolio_return_variable,
    risk_gradient_in_weights,
)
from tests.oracles import cvar_sorted_tail, phi_direct


def risk_of_losses(v: DiscreteRandomVariable, spec: RiskSpec) -> RiskValue:
    """Risk of the loss variable v; higher_order_risk takes returns, whose negations are losses."""
    return higher_order_risk(DiscreteRandomVariable(-v.outcomes, v.probabilities), spec)


def loss_variable(rng: np.random.Generator, n_max: int = 10) -> DiscreteRandomVariable:
    n = int(rng.integers(2, n_max + 1))
    return DiscreteRandomVariable(
        np.round(rng.normal(0.0, 2.0, n), 3), rng.dirichlet(np.ones(n))
    )


class TestHigherOrderRisk:
    def test_cvar_two_atom_example(self):
        v = DiscreteRandomVariable([0.0, 10.0], [0.5, 0.5])
        rv = risk_of_losses(v, RiskSpec(0.5, 1.0))
        assert rv.rho == pytest.approx(10.0, abs=1e-9)

    def test_degenerate_constant(self):
        for beta, r in ((0.0, 1.0), (0.5, 2.0), (0.9, 3.0)):
            rv = risk_of_losses(DiscreteRandomVariable([4.2], [1.0]), RiskSpec(beta, r))
            assert rv.rho == pytest.approx(4.2, abs=1e-12)
            assert rv.q_star == pytest.approx(4.2, abs=1e-12)

    def test_value_consistency_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            v = loss_variable(rng)
            spec = RiskSpec(float(rng.uniform(0.05, 0.95)), float(rng.choice([1.0, 1.5, 2.0, 3.0])))
            rv = risk_of_losses(v, spec)
            recomputed = phi_direct(v.outcomes, v.probabilities, spec.beta, spec.r, rv.q_star)
            assert rv.rho == pytest.approx(recomputed, abs=1e-10)

    def test_translation_equivariance_probe(self):
        rng = np.random.default_rng(6)
        v = loss_variable(rng)
        spec = RiskSpec(0.3, 2.0)
        shifted = DiscreteRandomVariable(v.outcomes + 1.0, v.probabilities)
        assert risk_of_losses(shifted, spec).rho == pytest.approx(
            risk_of_losses(v, spec).rho + 1.0, abs=1e-9
        )

    def test_coherence_axioms(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            v = loss_variable(rng)
            spec = RiskSpec(float(rng.uniform(0.05, 0.95)), float(rng.choice([1.0, 1.5, 2.0, 3.0])))
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

    def test_convexity_under_mixing(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            probs = rng.dirichlet(np.ones(n))
            la = np.round(rng.normal(0, 2, n), 3)
            lb = np.round(rng.normal(0, 2, n), 3)
            lam = float(rng.uniform(0, 1))
            spec = RiskSpec(float(rng.uniform(0.05, 0.9)), float(rng.choice([1.0, 2.0])))
            mixed = risk_of_losses(DiscreteRandomVariable(lam * la + (1 - lam) * lb, probs), spec).rho
            split = (
                lam * risk_of_losses(DiscreteRandomVariable(la, probs), spec).rho
                + (1 - lam) * risk_of_losses(DiscreteRandomVariable(lb, probs), spec).rho
            )
            assert mixed <= split + 1e-9

    def test_r1_matches_sorted_tail_cvar(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = loss_variable(rng)
            beta = float(rng.uniform(0.0, 0.95))
            got = risk_of_losses(v, RiskSpec(beta, 1.0)).rho
            expected = cvar_sorted_tail(v.outcomes, v.probabilities, beta)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_qstar_beats_random_probes(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            v = loss_variable(rng)
            spec = RiskSpec(float(rng.uniform(0.05, 0.9)), float(rng.choice([1.0, 1.5, 2.0])))
            rv = risk_of_losses(v, spec)
            lo, hi = float(v.outcomes.min()), float(v.outcomes.max())
            span = max(hi - lo, 1.0)
            probes = rng.uniform(lo - 3 * span, hi + span, 1000)
            vals = np.array([
                phi_direct(v.outcomes, v.probabilities, spec.beta, spec.r, q) for q in probes
            ])
            assert rv.rho <= vals.min() + 1e-9

    def test_negate_returns_default(self):
        v = DiscreteRandomVariable([-3.0, 1.0], [0.5, 0.5])
        # losses are (3, -1); CVaR at beta=0.5 takes the worst half
        rv = higher_order_risk(v, RiskSpec(0.5, 1.0))
        assert rv.rho == pytest.approx(3.0, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            RiskSpec(beta=1.2, r=1.0)
        with pytest.raises(DomainError):
            RiskSpec(beta=0.2, r=0.99)


class TestExactInnerSolve:
    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
    def test_beta_zero_is_the_expected_loss(self, r):
        demo = demo_scenarios()
        rng = np.random.default_rng(13)
        variables = [portfolio_return_variable(demo, PortfolioWeights.equal(demo.d))]
        variables += [loss_variable(rng, 30) for _ in range(20)]
        for v in variables:
            rv = higher_order_risk(v, RiskSpec(0.0, r))
            losses = -v.outcomes
            expected = float(v.probabilities @ losses)
            assert abs(rv.rho - expected) <= 1e-12 * max(1.0, abs(expected))
            assert rv.q_star == losses.min()

    def test_max_loss_regime(self):
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 30:
            v = loss_variable(rng, 16)
            r = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            beta = float(rng.uniform(1.0 - v.probabilities.min() ** (1.0 / r), 1.0))
            if beta >= 1.0:
                continue
            rv = risk_of_losses(v, RiskSpec(beta, r))
            assert rv.rho == rv.q_star == v.outcomes.max()
            checked += 1

    def test_r1_qstar_is_lower_quantile(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            v = loss_variable(rng, 20)
            beta = float(rng.uniform(0.01, 0.99))
            cdf = np.cumsum(v.probabilities[np.argsort(v.outcomes)])
            lower_quantile = np.sort(v.outcomes)[np.argmax(cdf >= beta)]
            assert risk_of_losses(v, RiskSpec(beta, 1.0)).q_star == lower_quantile

    def test_qstar_is_a_local_minimizer_to_rounding(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            v = loss_variable(rng, 20)
            spec = RiskSpec(float(rng.uniform(0.01, 0.95)), float(rng.choice([1.5, 2.0, 2.7, 3.0])))
            rv = risk_of_losses(v, spec)
            h = 1e-7 * (v.outcomes.max() - v.outcomes.min())
            for q in (rv.q_star - h, rv.q_star + h):
                assert phi_direct(v.outcomes, v.probabilities, spec.beta, spec.r, q) >= rv.rho - 1e-14


class TestRiskGradient:
    @staticmethod
    def _phi_of_weights(s, w, q, spec):
        losses = spec.losses(w @ s.returns)
        return phi_direct(losses, s.scenario_probabilities, spec.beta, spec.r, q)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 30:
            d = int(rng.integers(2, 5))
            n = int(rng.integers(5, 11))
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
                fd[i] = (
                    self._phi_of_weights(s, w + e, q, spec)
                    - self._phi_of_weights(s, w - e, q, spec)
                ) / (2 * h)
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(grad - fd).max() / scale < 1e-5
            checked += 1

    def test_zero_vector_when_tail_empty(self):
        s = ScenarioSet(np.array([[1.0, 2.0], [0.5, 1.5]]))
        spec = RiskSpec(0.5, 2.0)
        grad = risk_gradient_in_weights(s, PortfolioWeights.equal(2), 100.0, spec)
        assert np.all(grad == 0.0)

    def test_single_scenario_r1_chain_rule(self):
        # two scenarios keep the set valid; q isolates the first one
        s = ScenarioSet(np.array([[1.0, 100.0], [2.0, 100.0]]), [0.5, 0.5])
        spec = RiskSpec(0.2, 1.0)
        w = PortfolioWeights([0.5, 0.5])
        q = -3.0  # loss of scenario 1 is -1.5 > q; scenario 2 loss -100 < q
        grad = risk_gradient_in_weights(s, w, q, spec)
        expected = -(1.0 / (1.0 - 0.2)) * 0.5 * s.returns[:, 0]
        assert np.allclose(grad, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        s = ScenarioSet(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            risk_gradient_in_weights(s, PortfolioWeights.equal(3), 0.0, RiskSpec(0.5, 2.0))

    def test_rejects_non_finite_q(self):
        s = ScenarioSet(np.array([[1.0, 2.0], [0.5, 1.5]]))
        for q in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DomainError):
                risk_gradient_in_weights(s, PortfolioWeights.equal(2), q, RiskSpec(0.5, 2.0))
