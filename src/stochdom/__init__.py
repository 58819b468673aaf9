"""Higher-order stochastic dominance: verification of dominance between
discrete random variables and dominance-constrained portfolio optimization."""

from .dataio import dump_scenarios, load_scenarios, load_variable, load_weights
from .datasets import demo_scenarios, write_demo_csv
from .dominance import (
    DominanceCertificate,
    critical_thresholds,
    dominance_gap_at,
    lower_partial_moment,
    verify,
)
from .optimize import SolveReport, SolverConfig, optimize_max_return, optimize_min_risk
from .report import emit_plot, emit_report
from .risk import RiskValue, higher_order_risk, risk_gradient_in_weights
from .types import (
    DimensionError,
    DiscreteRandomVariable,
    DomainError,
    DominanceOrder,
    LossSign,
    PortfolioWeights,
    RiskSpec,
    ScenarioSet,
    mean,
    portfolio_return_variable,
)

__version__ = "0.1.0"

__all__ = [
    "DiscreteRandomVariable", "ScenarioSet", "PortfolioWeights", "DominanceOrder",
    "RiskSpec", "LossSign", "DomainError", "DimensionError",
    "portfolio_return_variable", "mean",
    "DominanceCertificate", "lower_partial_moment",
    "dominance_gap_at", "critical_thresholds", "verify",
    "RiskValue", "higher_order_risk", "risk_gradient_in_weights",
    "SolverConfig", "SolveReport", "optimize_max_return", "optimize_min_risk",
    "load_scenarios", "load_variable", "load_weights", "dump_scenarios",
    "demo_scenarios", "write_demo_csv",
    "emit_report", "emit_plot",
    "__version__",
]
