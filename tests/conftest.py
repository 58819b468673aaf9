from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: an interior-point round's rounding,
# and with it at times whether it converges, depends on the thread count
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np
import pytest

from stochdom import (
    DiscreteRandomVariable,
    PortfolioWeights,
    demo_scenarios,
    portfolio_return_variable,
)


@pytest.fixture(scope="session")
def golden_y() -> DiscreteRandomVariable:
    return DiscreteRandomVariable([3, 5, 7, 9, 11], [0.15, 0.25, 0.30, 0.20, 0.10])


@pytest.fixture(scope="session")
def golden_x() -> DiscreteRandomVariable:
    return DiscreteRandomVariable([2, 4, 6, 8, 10], [0.10, 0.30, 0.30, 0.20, 0.10])


@pytest.fixture(scope="session")
def demo():
    return demo_scenarios()


@pytest.fixture(scope="session")
def demo_benchmark(demo):
    return portfolio_return_variable(demo, PortfolioWeights.equal(demo.d))


def random_variable(rng: np.random.Generator, max_atoms: int = 8,
                    scale: float = 2.0) -> DiscreteRandomVariable:
    n = int(rng.integers(2, max_atoms + 1))
    outcomes = np.round(rng.normal(0.0, scale, n), 2)
    probs = rng.dirichlet(np.ones(n))
    return DiscreteRandomVariable(outcomes, probs)
