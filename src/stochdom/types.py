"""Core value types shared by the dominance, risk, and optimizer modules.

All types are immutable after construction (their arrays are marked
read-only), so instances can be shared freely across threads.  Returns
are stored and reported in percent units throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Probability vectors whose sum is within this distance of 1 are
# renormalized; anything further off is rejected loudly (tolerates CSV
# rounding, refuses genuinely bad data).
PROB_SUM_TOL = 1e-9

# Outcomes closer than this relative distance collapse into a single
# atom; keeps floating-point dot products from creating spurious atoms.
MERGE_TOL = 1e-12

# Default residual tolerance for portfolio weights.
WEIGHT_RESIDUAL_TOL = 1e-8


class DomainError(ValueError):
    """A numeric argument lies outside its mathematical domain."""


class DimensionError(ValueError):
    """Sequence lengths or array shapes do not line up."""


def _probability_vector(probabilities, expected_len: int | None = None) -> np.ndarray:
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise DimensionError("probabilities must be a non-empty 1-d sequence")
    if expected_len is not None and p.size != expected_len:
        raise DimensionError(f"expected {expected_len} probabilities, got {p.size}")
    if not np.all(np.isfinite(p)):
        raise DomainError("probabilities must be finite")
    if np.any(p <= 0.0):
        raise DomainError("probabilities must be strictly positive")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise DomainError(
            f"probabilities sum to {total!r}; deviation from 1 exceeds {PROB_SUM_TOL}"
        )
    return p / total


def _merge_close_outcomes(z: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted outcomes within MERGE_TOL relative distance.

    The merged atom sits at the probability-weighted mean of its group,
    which preserves total mass exactly and the mean to rounding.
    """
    gaps = np.diff(z)
    scale = np.maximum(1.0, np.maximum(np.abs(z[:-1]), np.abs(z[1:])))
    starts = np.concatenate(([True], gaps > MERGE_TOL * scale))
    if starts.all():
        return z, p
    group = np.cumsum(starts) - 1
    n_groups = int(group[-1]) + 1
    mass = np.zeros(n_groups)
    first_moment = np.zeros(n_groups)
    np.add.at(mass, group, p)
    np.add.at(first_moment, group, p * z)
    return first_moment / mass, mass


@dataclass(frozen=True, eq=False)
class DiscreteRandomVariable:
    """A finite discrete random variable given by outcome/probability pairs.

    Outcomes are sorted ascending on construction; outcomes closer than
    ``MERGE_TOL`` (relative) are merged by summing probabilities.
    """

    outcomes: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        z = np.array(self.outcomes, dtype=float)
        if z.ndim != 1 or z.size < 1:
            raise DimensionError("outcomes must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(z)):
            raise DomainError("outcomes must be finite")
        p = _probability_vector(self.probabilities, z.size)
        order = np.argsort(z, kind="stable")
        z, p = _merge_close_outcomes(z[order], p[order])
        z.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "outcomes", z)
        object.__setattr__(self, "probabilities", p)

    @property
    def n_atoms(self) -> int:
        return self.outcomes.size


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """A d x n matrix of asset returns over n weighted scenarios."""

    returns: np.ndarray
    scenario_probabilities: np.ndarray | None = None
    asset_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        r = np.array(self.returns, dtype=float)
        if r.ndim != 2:
            raise DimensionError("returns must be a 2-d matrix (assets x scenarios)")
        d, n = r.shape
        if d < 1:
            raise DimensionError("need at least one asset")
        if n < 2:
            raise DimensionError("need at least two scenarios")
        if not np.all(np.isfinite(r)):
            raise DomainError("returns matrix contains non-finite entries")
        if self.scenario_probabilities is None:
            p = np.full(n, 1.0 / n)
        else:
            p = _probability_vector(self.scenario_probabilities, n)
        if self.asset_labels is None:
            labels = tuple(f"Asset_{i + 1}" for i in range(d))
        else:
            labels = tuple(str(s) for s in self.asset_labels)
            if len(labels) != d:
                raise DimensionError(f"expected {d} asset labels, got {len(labels)}")
        r.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "returns", r)
        object.__setattr__(self, "scenario_probabilities", p)
        object.__setattr__(self, "asset_labels", labels)

    @property
    def d(self) -> int:
        return self.returns.shape[0]

    @property
    def n(self) -> int:
        return self.returns.shape[1]

    def mean_returns(self) -> np.ndarray:
        """Probability-weighted mean return per asset."""
        return self.returns @ self.scenario_probabilities


@dataclass(frozen=True, eq=False)
class PortfolioWeights:
    """A point on the d-simplex (long-only, fully invested weights).

    Entries within ``WEIGHT_RESIDUAL_TOL`` below zero are clipped to exactly
    zero; the sum is checked against 1 but never silently renormalized,
    so residual reporting stays faithful to the stored vector.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise DimensionError("weights must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(w)):
            raise DomainError("weights must be finite")
        tol = WEIGHT_RESIDUAL_TOL
        if np.any(w < -tol):
            raise DomainError(f"negative weight beyond tolerance {tol}: {w.min()!r}")
        w = np.maximum(w, 0.0)
        total = float(w.sum())
        if abs(total - 1.0) > tol:
            raise DomainError(f"weights sum to {total!r}; deviation from 1 exceeds {tol}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def d(self) -> int:
        return self.weights.size

    def simplex_residual(self) -> float:
        w = self.weights
        return float(abs(w.sum() - 1.0) + np.maximum(-w, 0.0).sum())

    @classmethod
    def equal(cls, d: int) -> "PortfolioWeights":
        if d < 1:
            raise DimensionError("need at least one asset")
        return cls(np.full(d, 1.0 / d))


def order_value(p) -> float:
    """The stochastic order p as a float, checked to be a finite real >= 1."""
    order = float(p)
    if not np.isfinite(order) or order < 1.0:
        raise DomainError(f"stochastic order must be a finite real >= 1, got {p!r}")
    return order


@dataclass(frozen=True)
class RiskSpec:
    """Parameters of the higher-order risk functional.

    beta is the confidence/risk parameter in [0, 1); r >= 1 is the
    moment order (r = 1 recovers CVaR at level beta).  Losses are
    negated returns.
    """

    beta: float
    r: float

    def __post_init__(self) -> None:
        b, r = float(self.beta), float(self.r)
        if not np.isfinite(b) or not (0.0 <= b < 1.0):
            raise DomainError(f"beta must lie in [0, 1), got {self.beta!r}")
        if not np.isfinite(r) or r < 1.0:
            raise DomainError(f"risk moment order r must be >= 1, got {self.r!r}")
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "r", r)

    @staticmethod
    def losses(returns) -> np.ndarray:
        """Losses of the return outcomes: their negations."""
        return -np.asarray(returns, dtype=float)


def portfolio_return_variable(s: ScenarioSet, w: PortfolioWeights) -> DiscreteRandomVariable:
    """Return distribution of the portfolio w over the scenario set s."""
    if w.d != s.d:
        raise DimensionError(f"weights have {w.d} entries but the scenario set has {s.d} assets")
    return DiscreteRandomVariable(w.weights @ s.returns, s.scenario_probabilities)


def mean(v: DiscreteRandomVariable) -> float:
    """Expected value of a discrete random variable."""
    return float(np.dot(v.probabilities, v.outcomes))
