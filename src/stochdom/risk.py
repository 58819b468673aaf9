"""Higher-order coherent risk functional and its weight-space gradient.

The risk of a loss distribution L is min over q of

    phi(q) = q + (1 / (1 - beta)) * (E[(L - q)_+^r])^(1/r)

which generalizes CVaR (r = 1) to r-th moments of tail losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import (
    DimensionError,
    DiscreteRandomVariable,
    DomainError,
    PortfolioWeights,
    RiskSpec,
    ScenarioSet,
)

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RiskValue:
    """Risk measure value and the inner parameter that attains it.

    q_star is the smallest minimizer of phi.  At beta = 0 and r > 1 the
    infimum E[L] is approached only as q -> -inf, so there q_star is the
    convention min L (at which phi exceeds rho) rather than a minimizer.
    """

    rho: float
    q_star: float


def _phi(tail: np.ndarray, probs: np.ndarray, c: float, r: float, q: float) -> float:
    """phi(q) over the losses above q, with c = 1 / (1 - beta)."""
    return q + c * float(probs @ (tail - q) ** r) ** (1.0 / r)


def _slope(tail: np.ndarray, probs: np.ndarray, c: float, r: float, q: float):
    """phi'(q) and phi''(q) for r > 1, every loss in tail strictly above q."""
    u = tail - q
    k = probs * u ** (r - 2.0)
    m = float(k @ u)
    s = float(k @ u**2)
    scale = s ** (1.0 / r - 1.0)
    return 1.0 - c * scale * m, c * (r - 1.0) * scale * (float(k.sum()) - m * m / s)


def _root(tail, probs, c, r, a, b) -> float:
    """The zero of phi' between a and b, where phi'(a) < 0 <= phi'(b).

    Safeguarded Newton: a step that leaves the bracket, or that follows
    an evaluation which failed to halve it, is replaced by bisection.
    """
    q, width = 0.5 * (a + b), b - a
    while b - a > 4.0 * np.spacing(max(abs(a), abs(b))):
        g, h = _slope(tail, probs, c, r, q)
        if g == 0.0:
            return q
        if g < 0.0:
            a = q
        else:
            b = q
        nxt = q - g / h if h > 0.0 else b
        if not a < nxt < b or b - a > 0.5 * width:
            nxt = 0.5 * (a + b)
        width = b - a
        if abs(nxt - q) <= 4.0 * np.spacing(abs(q)):
            return nxt
        q = nxt
    return q


def minimize_phi(L: np.ndarray, p: np.ndarray, beta: float, r: float) -> RiskValue:
    """Exact inner minimization of phi over q on raw loss/probability arrays.

    phi is convex, and between consecutive sorted losses the tail set
    {L > q} is fixed.  One sort and a binary search over the sorted losses
    on the sign of the right derivative phi' find the segment holding the
    smallest minimizer; safeguarded Newton solves phi' = 0 inside it.  Left
    of min L the bracket is found by doubling from min L.  Cost:
    O(n log n) for the sort and the O(log n) derivative evaluations.

    - r = 1: the lower beta-quantile, read off the cumulative
      probabilities (Rockafellar & Uryasev 2000).
    - beta = 0: rho = E[L] exactly and q_star = min L (see ``RiskValue``).
    - p_j^(1/r) >= 1 - beta for the largest loss: phi' < 0 below max L,
      so rho = q_star = max L.
    """
    vals, inv = np.unique(L, return_inverse=True)
    probs = np.bincount(inv, weights=p)
    expected = RiskValue(rho=float(p @ L), q_star=float(vals[0]))
    if beta == 0.0:
        return expected
    c, last = 1.0 / (1.0 - beta), vals.size - 1
    if r == 1.0:
        k = min(int(np.searchsorted(np.cumsum(probs), beta)), last)
        q = float(vals[k])
        return RiskValue(rho=_phi(vals[k:], probs[k:], c, r, q), q_star=q)

    # smallest k with phi'(vals[k]+) >= 0; at max L the right slope is +1
    k, hi = 0, last
    while k < hi:
        mid = (k + hi) // 2
        if _slope(vals[mid + 1 :], probs[mid + 1 :], c, r, vals[mid])[0] >= 0.0:
            hi = mid
        else:
            k = mid + 1
    q = float(vals[k])
    if k == last:
        # only max L is in the tail below it, with constant slope < 0
        return RiskValue(rho=q, q_star=q)
    tail, tprobs = vals[k:], probs[k:]
    if k > 0:
        q = _root(tail, tprobs, c, r, float(vals[k - 1]), q)
    else:
        d = span = float(vals[last] - vals[0])
        while _slope(tail, tprobs, c, r, q - d)[0] >= 0.0:
            if (span / d) ** 2 < _EPS:
                # phi' depends on the losses only through (span / d)^2, now
                # below rounding: beta is too small to resolve and acts as 0
                return expected
            d *= 2.0
        q = _root(tail, tprobs, c, r, q - d, q)
    return RiskValue(rho=_phi(tail, tprobs, c, r, q), q_star=q)


def higher_order_risk(v: DiscreteRandomVariable, spec: RiskSpec) -> RiskValue:
    """Evaluate the higher-order risk measure of v under spec.

    Losses are v's negated outcomes (``RiskSpec.losses``); the inner
    minimizer is ``minimize_phi``'s exact one.
    """
    return minimize_phi(spec.losses(v.outcomes), v.probabilities, spec.beta, spec.r)


def risk_gradient_in_weights(
    s: ScenarioSet, w: PortfolioWeights, q: float, spec: RiskSpec
) -> np.ndarray:
    """Gradient of phi(q; w) with respect to the weights, at fixed q.

    Chain rule through the per-scenario losses; returns the zero vector
    when no loss exceeds q (subgradient convention for the inactive
    positive part).  q must be finite.
    """
    if w.d != s.d:
        raise DimensionError(f"weights have {w.d} entries but the scenario set has {s.d} assets")
    if not np.isfinite(q):
        raise DomainError(f"q must be finite, got {q!r}")
    L = spec.losses(w.weights @ s.returns)
    u = L - float(q)
    mask = u > 0.0
    if not mask.any():
        return np.zeros(s.d)
    pm, um = s.scenario_probabilities[mask], u[mask]
    r = spec.r
    if r == 1.0:
        coef = pm
    else:
        S = float(np.dot(pm, um**r))
        coef = S ** (1.0 / r - 1.0) * pm * um ** (r - 1.0)
    return (1.0 / (1.0 - spec.beta)) * (spec.losses(s.returns[:, mask]) @ coef)
