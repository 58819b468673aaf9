"""Inputs for the benchmark workloads.

The verify pairs come from numpy generators keyed on the workload seed,
so the same seed gives the same inputs.  The optimizer instances and the
fault reproducers are fixed and do not depend on the seed, so that an
operation that fails today fails in every run.  stochdom receives only
these arrays, or CSV files written from them.
"""

from __future__ import annotations

import numpy as np

VERIFY_ORDERS = (3.0, 3.5, 4.0, 4.7)
SHIFT_ATOMS = 1000          # atoms per side of a shifted pair
SPREAD_BASE_ATOMS = 700     # the spread side of a spread pair has twice as many
LARGE_ATOMS = 10_000        # atoms per side of the order-2 pair
SYNTH_ASSETS = 20
SYNTH_SCENARIOS = 120       # more benchmark atoms than the optimizer's 50-cut budget
# Generator seed of the factor-model instance.  The instance is fixed:
# on random instances the optimizer raises or falls back depending on
# the draw, which would make the failed count depend on the seed.  On
# this one order 2 matches the LP and order 3 shows the constraint-budget
# fault.
SYNTH_SEED = 2

GOLDEN_Y = ((3.0, 5.0, 7.0, 9.0, 11.0), (0.15, 0.25, 0.30, 0.20, 0.10))
GOLDEN_X = ((2.0, 4.0, 6.0, 8.0, 10.0), (0.10, 0.30, 0.30, 0.20, 0.10))

# Y = {-0.1001, 10}, X = {-1, 1}: equal means, and at order 4 the gap
# 3t(Var Y - Var X) - (E Y^3 - E X^3) grows without bound in the tail
TAIL_Y = ((-0.1001, 10.0), (10.0 / 10.1001, 0.1001 / 10.1001))
TAIL_X = ((-1.0, 1.0), (0.5, 0.5))
TAIL_ORDER = 4


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _daily_returns(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fat-tailed percent returns with uneven, strictly positive probabilities."""
    z = 0.04 + 0.9 * rng.standard_t(5, n)
    p = rng.dirichlet(np.full(n, 4.0))
    return z, p


def _spread(rng: np.random.Generator, z: np.ndarray, p: np.ndarray):
    """Mean-preserving spread: atom z splits into z - a and z + b, E[new | z] = z."""
    scale = float(np.std(z))
    a = rng.uniform(0.05, 0.4, z.size) * scale
    b = rng.uniform(0.05, 0.4, z.size) * scale
    return np.concatenate([z - a, z + b]), np.concatenate([p * b / (a + b), p * a / (a + b)])


def verify_pairs(seed: int) -> list[dict]:
    """Pairs at orders 3, 3.5, 4 and 4.7: one built to dominate, one built not to.

    Dominating pairs are a positive shift (orders 3 and 4) or X a
    mean-preserving spread of Y (3.5 and 4.7).  In the other pair Y is
    a mean-preserving spread of X, so it fails at every order >= 2.
    """
    pairs = []
    for i, order in enumerate(VERIFY_ORDERS):
        rng = _rng(seed, 10 + i)
        if order in (3.0, 4.0):
            z, p = _daily_returns(rng, SHIFT_ATOMS)
            y, x, how = (z + 0.05 * float(np.std(z)), p), (z, p), "shift"
        else:
            z, p = _daily_returns(rng, SPREAD_BASE_ATOMS)
            y, x, how = (z, p), _spread(rng, z, p), "spread"
        pairs.append({"name": f"p{order:g}-{how}-dominates", "order": order, "y": y, "x": x,
                      "dominates": True})
        z, p = _daily_returns(rng, SPREAD_BASE_ATOMS)
        pairs.append({"name": f"p{order:g}-spread-fails", "order": order, "y": _spread(rng, z, p),
                      "x": (z, p), "dominates": False})
    return pairs


def large_pair(seed: int) -> dict:
    """Two independent 10^4-atom samples, Y shifted up by a tenth of a percent."""
    rng = _rng(seed, 1)
    yz, yp = _daily_returns(rng, LARGE_ATOMS)
    xz, xp = _daily_returns(rng, LARGE_ATOMS)
    return {"name": "p2-large", "order": 2.0, "y": (yz + 0.1, yp), "x": (xz, xp)}


def synthetic_returns() -> np.ndarray:
    """Assets x scenarios percent returns: one market factor plus fat-tailed idiosyncratic noise."""
    rng, d, n = np.random.default_rng(SYNTH_SEED), SYNTH_ASSETS, SYNTH_SCENARIOS
    market = rng.normal(0.04, 1.0, n)
    beta = rng.uniform(0.6, 1.4, d)
    alpha = rng.normal(0.02, 0.05, d)
    vol = rng.uniform(0.5, 1.5, d)
    return alpha[:, None] + beta[:, None] * market[None, :] + vol[:, None] * rng.standard_t(6, (d, n))


def write_variable_csv(path, outcomes, probabilities) -> None:
    rows = "".join(f"{o!r},{p!r}\n" for o, p in zip(outcomes, probabilities))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("outcome,probability\n" + rows)
