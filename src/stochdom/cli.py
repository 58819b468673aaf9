"""Command-line surface: ``sd verify``, ``sd max-return``, ``sd min-risk``.

Exit codes: 0 success with dominance, 1 usage/domain error,
2 infeasible or not dominant, 3 I/O error.  The solve commands' --seed
only fills the JSON report's seed field, since solves are deterministic.
The benchmark is the equal-weight portfolio of the data assets unless
--benchmark-weights or --benchmark-series names another.
"""

from __future__ import annotations

import argparse
import sys

from .dataio import load_scenarios, load_variable, load_weights
from .dominance import DEFAULT_VERIFY_TOL, verify
from .optimize import optimize_max_return, optimize_min_risk
from .report import emit_plot, emit_report
from .types import PortfolioWeights, RiskSpec, portfolio_return_variable

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_DOMINANT = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract
    # reserves 2 for "not dominant / infeasible", so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sd",
        description="Verify higher-order stochastic dominance and optimize dominance-constrained portfolios.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pv = sub.add_parser("verify", help="check whether Y dominates X at the given stochastic order")
    pv.add_argument("--y", required=True, metavar="FILE", help="CSV of the candidate dominating variable Y")
    pv.add_argument("--x", required=True, metavar="FILE", help="CSV of the benchmark variable X")
    pv.add_argument("--order", type=float, required=True, help="stochastic order p >= 1")
    pv.add_argument("--tol", type=float, default=DEFAULT_VERIFY_TOL, help="verdict tolerance")
    pv.add_argument("--json", default=None, metavar="FILE", help="also write a JSON report")
    pv.add_argument("--verbose", action="store_true")

    for name, help_text in (
        ("max-return", "maximize expected return under dominance constraints"),
        ("min-risk", "minimize the higher-order risk measure under dominance constraints"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--data", required=True, metavar="FILE", help="CSV of asset returns (rows = scenarios)")
        sp.add_argument("--order", type=float, required=True, help="stochastic order p >= 2")
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--benchmark-weights", dest="benchmark_weights", metavar="FILE",
                           help="CSV of benchmark portfolio weights (default: equal weights)")
        group.add_argument("--benchmark-series", dest="benchmark_series", metavar="FILE",
                           help="CSV of benchmark return outcomes (own scenario space)")
        sp.add_argument("--prob-col", dest="prob_col", default=None, metavar="NAME",
                        help="column holding scenario probabilities (default: uniform)")
        sp.add_argument("--tol", type=float, default=DEFAULT_VERIFY_TOL, help="dominance constraint tolerance")
        sp.add_argument("--seed", type=int, default=42,
                        help="recorded in the JSON report; solves are deterministic")
        sp.add_argument("--plot", default=None, metavar="FILE", help="write an SVG allocation chart")
        sp.add_argument("--json", default=None, metavar="FILE", help="also write a JSON report")
        sp.add_argument("--verbose", action="store_true")
        if name == "min-risk":
            sp.add_argument("--beta", type=float, required=True, help="risk parameter in [0, 1)")
            sp.add_argument("--r", type=float, required=True, help="moment order of the risk measure, >= 1")
    return parser


def _cmd_verify(ns: argparse.Namespace) -> int:
    y = load_variable(ns.y)
    x = load_variable(ns.x)
    cert = verify(y, x, ns.order, ns.tol)
    text = emit_report(
        cert, ns.verbose, command="verify", order=ns.order,
        seed=None, json_path=ns.json,
    )
    sys.stdout.write(text)
    return EXIT_OK if cert.dominates else EXIT_NOT_DOMINANT


def _cmd_solve(ns: argparse.Namespace) -> int:
    s = load_scenarios(ns.data, prob_col=ns.prob_col)
    if ns.benchmark_weights is not None:
        tau = PortfolioWeights(load_weights(ns.benchmark_weights, expected_d=s.d))
        benchmark = portfolio_return_variable(s, tau)
    elif ns.benchmark_series is not None:
        benchmark = load_variable(ns.benchmark_series)
    else:
        benchmark = portfolio_return_variable(s, PortfolioWeights.equal(s.d))
    if ns.command == "min-risk":
        result = optimize_min_risk(s, benchmark, ns.order, RiskSpec(ns.beta, ns.r), tol=ns.tol)
    else:
        result = optimize_max_return(s, benchmark, ns.order, tol=ns.tol)
    text = emit_report(
        result, ns.verbose, command=ns.command, order=ns.order, seed=ns.seed,
        json_path=ns.json, asset_labels=s.asset_labels,
    )
    sys.stdout.write(text)
    if ns.plot is not None:
        if result.infeasible:
            sys.stderr.write("sd: skipping plot: the run is infeasible\n")
        else:
            emit_plot(result, ns.plot, asset_labels=s.asset_labels)
    return EXIT_NOT_DOMINANT if result.infeasible or result.dominance_residual > ns.tol else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if ns.command == "verify":
            return _cmd_verify(ns)
        return _cmd_solve(ns)
    except OSError as exc:
        sys.stderr.write(f"sd: i/o error: {exc}\n")
        return EXIT_IO
    except ValueError as exc:
        # DomainError and DimensionError subclass ValueError
        sys.stderr.write(f"sd: error: {exc}\n")
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
