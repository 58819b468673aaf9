"""The three workloads: their operations, reference values and output checks.

A workload is a fixed list of operations, run in order as one pass by a
single caller.  Each operation has a timed call into stochdom, a
reference computed once after the timed passes, and a check that
compares every pass's output with that reference and returns the names
of the checks that failed.  Operations with a `fault` reproduce a known
defect and fail today; any other failure makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
import oracle

VERIFY_TOL = 1e-8       # stochdom's default verdict tolerance
LP_TOL = 1e-6           # order-2 optima against their LP
RISK_RTOL = 1e-8        # reported risk against its recomputation
DEMO_ORDERS = (2.0, 3.0, 4.0)
JSON_KEYS = {
    "command", "order", "weights", "active_thresholds", "q_star", "objective",
    "expected_return", "benchmark_return", "risk_value", "residuals",
    "converged", "infeasible", "seed",
}


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object, object, dict], list[str]]    # (output, reference, pass outputs)
    reference: Callable[[], object] = lambda: None
    fault: str | None = None          # a known defect this operation reproduces
    fault_check: str | None = None    # the one check that defect fails


def _run_cli(api, argv, *files):
    """Run the sd CLI in-process; return its exit code, stdout and the files it wrote."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = api.cli_main([str(a) for a in argv])
    texts = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    return code, out.getvalue(), texts


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- verify-scaling

def verify_scaling(sd, api, seed: int, workdir) -> list[Op]:
    ops = []
    for pair in inputs.verify_pairs(seed):
        ops.append(_verify_pair_op(sd, api, pair))

    large = inputs.large_pair(seed)
    ops.append(_verify_order2_op(sd, api, large))

    y_csv, x_csv, report = workdir / "golden_y.csv", workdir / "golden_x.csv", workdir / "golden.json"
    inputs.write_variable_csv(y_csv, *inputs.GOLDEN_Y)
    inputs.write_variable_csv(x_csv, *inputs.GOLDEN_X)
    argv = ["verify", "--y", y_csv, "--x", x_csv, "--order", "2", "--json", report]
    golden = [np.asarray(a, dtype=float) for a in (*inputs.GOLDEN_Y, *inputs.GOLDEN_X)]

    def check_golden(out, sup, _):
        code, stdout, (text,) = out
        payload = json.loads(text)
        failed = []
        if code != 0:
            failed.append("exit_code")
        if stdout.splitlines()[:1] != ["Y dominates X in stochastic order 2"]:
            failed.append("verdict_line")
        if set(payload) != JSON_KEYS:
            failed.append("json_keys")
        if not _close(payload["objective"], sup, 1e-12):
            failed.append("order2_worst_gap_exact")
        return failed

    ops.append(Op("verify.golden.cli", lambda: _run_cli(api, argv, report), check_golden,
                  lambda: oracle.order2_supremum(*golden)[0]))

    ty = [np.asarray(a, dtype=float) for a in inputs.TAIL_Y]
    tx = [np.asarray(a, dtype=float) for a in inputs.TAIL_X]
    y, x = sd.DiscreteRandomVariable(*ty), sd.DiscreteRandomVariable(*tx)

    def check_tail(cert, tail_max, _):
        return [] if cert.dominates == (tail_max <= VERIFY_TOL) else ["exact_tail_gap"]

    ops.append(Op("verify.tail-reproducer", lambda: api.verify(y, x, inputs.TAIL_ORDER), check_tail,
                  lambda: oracle.tail_gap_max(*ty, *tx, inputs.TAIL_ORDER),
                  fault="verify's tail check uses only the mean condition and its probes stop at "
                        "10x the support span; the exact order-4 gap at t = 5000 is +5.09",
                  fault_check="exact_tail_gap"))
    return ops


def _verify_pair_op(sd, api, pair) -> Op:
    (yz, yp), (xz, xp), order = pair["y"], pair["x"], pair["order"]
    y, x = sd.DiscreteRandomVariable(yz, yp), sd.DiscreteRandomVariable(xz, xp)

    def reference():
        return (oracle.grid_gap_max(yz, yp, xz, xp, order),
                oracle.tail_gap_max(yz, yp, xz, xp, order))

    def check(cert, ref, _):
        grid_max, tail_max = ref
        failed = []
        if cert.dominates != pair["dominates"]:
            failed.append("verdict_matches_construction")
        if cert.dominates and tail_max > VERIFY_TOL:
            failed.append("exact_tail_gap")
        direct = oracle.gap_direct(yz, yp, xz, xp, order, cert.worst_t)
        if not _close(cert.worst_gap, direct, 1e-9, 1e-12):
            failed.append("worst_gap_direct_sum")
        # verify's probes, like the grid, end GRID_SPANS support widths out
        if grid_max > cert.worst_gap + VERIFY_TOL + 1e-9 * abs(grid_max):
            failed.append("dense_grid_below_worst_gap")
        return failed

    return Op(f"verify.{pair['name']}", lambda: api.verify(y, x, order), check, reference)


def _verify_order2_op(sd, api, pair) -> Op:
    (yz, yp), (xz, xp) = pair["y"], pair["x"]
    y, x = sd.DiscreteRandomVariable(yz, yp), sd.DiscreteRandomVariable(xz, xp)

    def check(cert, sup, _):
        failed = []
        if cert.dominates != (sup <= VERIFY_TOL):
            failed.append("order2_verdict_exact")
        if not _close(cert.worst_gap, sup, 1e-9, 1e-12):
            failed.append("order2_worst_gap_exact")
        return failed

    return Op(f"verify.{pair['name']}", lambda: api.verify(y, x, 2), check,
              lambda: oracle.order2_supremum(yz, yp, xz, xp)[0])


# ---------------------------------------------------------------- optimizer checks

@dataclass
class Instance:
    """A portfolio instance as stochdom receives it and as the oracles see it.

    The oracles take the equal-weight benchmark from the raw returns,
    not from stochdom's portfolio_return_variable.
    """

    s: object                # stochdom ScenarioSet
    bench: object            # stochdom DiscreteRandomVariable of the benchmark
    returns: np.ndarray      # d x n
    probs: np.ndarray
    bench_z: np.ndarray
    bench_p: np.ndarray

    @classmethod
    def equal_weight(cls, sd, returns):
        returns = np.asarray(returns, dtype=float)
        s = sd.ScenarioSet(returns)
        bench = sd.portfolio_return_variable(s, sd.PortfolioWeights.equal(s.d))
        probs = np.full(returns.shape[1], 1.0 / returns.shape[1])
        return cls(s, bench, returns, probs, returns.mean(axis=0), probs)

    @functools.cached_property
    def lp_max_return(self) -> float:
        return oracle.max_return_lp(self.returns, self.probs, self.bench_z, self.bench_p)

    def check_portfolio(self, report, order) -> tuple[list[str], np.ndarray | None]:
        """Checks every optimizer output must pass; returns failures and portfolio outcomes."""
        if report.infeasible or report.weights is None:
            return ["feasible_report"], None
        w = np.asarray(report.weights.weights, dtype=float)
        failed = []
        if w.min() < 0.0 or abs(w.sum() - 1.0) > 1e-8:
            failed.append("simplex")
        z = w @ self.returns
        viol = oracle.dominance_violation(z, self.probs, self.bench_z, self.bench_p, order)
        if viol > VERIFY_TOL + 1e-10:
            failed.append("dominance_recheck")
        return failed, z


def _max_return_op(api, inst: Instance, name: str, order: float, fault=None, fault_check=None) -> Op:
    def check(report, lp_optimum, _):
        failed, z = inst.check_portfolio(report, order)
        if z is None:
            return failed
        expected = float(np.dot(inst.probs, z))
        if not _close(report.expected_return, expected, 1e-12):
            failed.append("expected_return_recomputed")
        if order == 2.0 and abs(expected - lp_optimum) > LP_TOL:
            failed.append("objective_matches_lp")
        # order-2 dominance implies order-3 and order-4 dominance
        if order > 2.0 and expected < lp_optimum - LP_TOL:
            failed.append("order2_lp_lower_bound")
        return failed

    return Op(name, lambda: api.optimize_max_return(inst.s, inst.bench, order), check,
              lambda: inst.lp_max_return, fault, fault_check)


# ---------------------------------------------------------------- max-return

def max_return(sd, api, seed: int, workdir) -> list[Op]:
    demo = Instance.equal_weight(sd, sd.demo_scenarios().returns)
    ops = [_max_return_op(api, demo, f"max-return.demo.p{order:g}", order) for order in DEMO_ORDERS]

    csv, report, svg = workdir / "demo.csv", workdir / "demo-p4.json", workdir / "demo-p4.svg"
    sd.write_demo_csv(csv)
    argv = ["max-return", "--data", csv, "--order", "4", "--json", report, "--plot", svg]

    def check_cli(out, _, pass_outputs):
        code, _stdout, (text, chart) = out
        payload = json.loads(text)
        failed = []
        if code != 0:
            failed.append("exit_code")
        if set(payload) != JSON_KEYS:
            failed.append("json_keys")
        library = pass_outputs["max-return.demo.p4"]
        if isinstance(library, Exception) or library.weights is None or not np.allclose(
                payload["weights"], library.weights.weights, rtol=0.0, atol=1e-12):
            failed.append("weights_match_library")
        if "<svg" not in chart:
            failed.append("plot_written")
        return failed

    ops.append(Op("max-return.demo.p4.cli", lambda: _run_cli(api, argv, report, svg), check_cli))

    synth = Instance.equal_weight(sd, inputs.synthetic_returns())
    ops.append(_max_return_op(api, synth, "max-return.synthetic.p2", 2.0))
    ops.append(_max_return_op(
        api, synth, "max-return.synthetic.p3", 3.0,
        fault="constraint generation counts the 120 benchmark atoms against "
              "max_generated_constraints = 50, never adds the violated threshold, and "
              "falls back to its candidate sweep",
        fault_check="order2_lp_lower_bound"))
    return ops


# ---------------------------------------------------------------- min-risk

def min_risk(sd, api, seed: int, workdir) -> list[Op]:
    demo = Instance.equal_weight(sd, sd.demo_scenarios().returns)
    headline, cvar = sd.RiskSpec(beta=0.5, r=2.0), sd.RiskSpec(beta=0.95, r=1.0)

    def check_headline(report, bench_risk, _):
        failed, z = demo.check_portfolio(report, 4.7)
        if z is None:
            return failed
        risk = oracle.higher_order_risk_1d(-z, demo.probs, 0.5, 2.0)
        if not _close(report.risk_value, risk, RISK_RTOL):
            failed.append("risk_recomputed")
        # the benchmark itself is feasible
        if risk > bench_risk + RISK_RTOL * max(1.0, abs(bench_risk)):
            failed.append("not_worse_than_benchmark")
        return failed

    def check_cvar(report, lp_optimum, _):
        failed, z = demo.check_portfolio(report, 2.0)
        if z is None:
            return failed
        if not _close(report.risk_value, oracle.cvar_sorted(-z, demo.probs, 0.95), RISK_RTOL):
            failed.append("risk_recomputed")
        if abs(report.risk_value - lp_optimum) > LP_TOL:
            failed.append("objective_matches_lp")
        return failed

    return [
        Op("min-risk.demo.p4.7", lambda: api.optimize_min_risk(demo.s, demo.bench, 4.7, headline),
           check_headline,
           lambda: oracle.higher_order_risk_1d(-demo.bench_z, demo.bench_p, 0.5, 2.0)),
        Op("min-risk.demo.cvar", lambda: api.optimize_min_risk(demo.s, demo.bench, 2.0, cvar),
           check_cvar,
           lambda: oracle.cvar_lp(demo.returns, demo.probs, 0.95, demo.bench_z, demo.bench_p),
           fault="the r = 1 fixed-q path stops at 1.32176 with converged=False; the order-2 "
                 "CVaR LP optimum is 1.31584",
           fault_check="objective_matches_lp"),
    ]


WORKLOADS = {"verify-scaling": verify_scaling, "max-return": max_return, "min-risk": min_risk}
