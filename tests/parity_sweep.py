"""Parity sweep of the portfolio optimizers, for comparing two versions of stochdom.

    python tests/parity_sweep.py --out new.json [--src SRC] [--baseline old.json]

Runs fixed sweeps and writes the outcome of every run to --out:

- the 22 seeded random instances of ``sweep_instance``, each with its
  equal-weight benchmark, in 7 columns: max-return at orders 2, 3 and
  4.7, and min-risk at (order, beta, r) = (3, .5, 2), (4.7, .8, 3),
  (2.5, .2, 1.5) and (2, .9, 1);
- the three 10-asset, 250-scenario factor models of ``factor_returns``
  (seeds 0-2), each with its equal-weight benchmark, in 2 columns:
  order-2 max-return and min-risk at (2, .9, 1);
- the demo data set at orders 2, 2.5, 3, 4 and 4.7, beta 0, .5 and .9,
  and r 1, 2 and 3 (45 min-risk runs);
- 30 instances with uneven Dirichlet(0.5) scenario probabilities
  (``uneven_returns``) at (4.7, .8, 3);
- the 22 random instances with the equal-weight benchmark raised by each
  of ``SHIFTS``, which can leave no dominating portfolio, in 3 columns:
  max-return at orders 2 and 3 and min-risk at (2, .9, 1);
- ``verify`` on the 40 seeded small pairs of ``verify_pair`` and the two
  10^3-atom pairs of ``large_verify_pair``, at each of ``VERIFY_ORDERS``
  (one column per order), recording the certificate's fields.

It prints, per optimizer column, the converged count and the Newton
iterations; with --baseline, also how many objectives are better, equal
or worse than the baseline's by more than 1e-9 max(1, |baseline|).  A
shifted column prints its infeasible, converged and unconverged counts
and its constraint-generation rounds instead (with --baseline, also its
better, equal and worse objectives), and a verify column its
dominating count and evaluated thresholds.  With --baseline it then
lists every optimizer run whose converged or infeasible flag or Newton
count changed, or whose objective moved by more than
1e-10 max(1, |baseline|), each with its rounds; then it prints how many
runs equal the baseline's in every field they record (floats bit for
bit), and lists up to 10 runs that differ, field by field.  When scipy
is installed it prints the largest difference from the HiGHS LP optimum
of the order-2 max-return and CVaR columns, random and factor, and how
many order-2 shifted runs' infeasible verdicts disagree with HiGHS.
--src picks the stochdom sources to import, so the same script measures
another checkout.  It is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy loads: an interior-point round's rounding,
# and with it at times whether it converges, depends on the thread count
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SWEEP_COLUMNS = {
    "max-return p2": (2.0, None),
    "max-return p3": (3.0, None),
    "max-return p4.7": (4.7, None),
    "min-risk (3, .5, 2)": (3.0, (0.5, 2.0)),
    "min-risk (4.7, .8, 3)": (4.7, (0.8, 3.0)),
    "min-risk (2.5, .2, 1.5)": (2.5, (0.2, 1.5)),
    "min-risk (2, .9, 1)": (2.0, (0.9, 1.0)),
}
FACTOR_COLUMNS = {
    "factor max-return p2": (2.0, None),
    "factor (2, .9, 1)": (2.0, (0.9, 1.0)),
}
LP_COLUMNS = ("max-return p2", "min-risk (2, .9, 1)", *FACTOR_COLUMNS)
SHIFTS = (1e-4, 1e-3, 3e-2)
SHIFTED_COLUMNS = {
    "shifted max-return p2": (2.0, None),
    "shifted max-return p3": (3.0, None),
    "shifted (2, .9, 1)": (2.0, (0.9, 1.0)),
}
VERIFY_ORDERS = (1.0, 2.0, 2.5, 3.0, 4.0, 4.7, 6.0)


def sweep_instance(k: int) -> np.ndarray:
    """Instance k of a seeded sweep of small random return matrices."""
    rng = np.random.default_rng(1)
    for _ in range(k + 1):
        d = int(rng.integers(3, 8))
        n = int(rng.integers(10, 40))
        returns = np.round(rng.normal(0.1, 1.0, (d, n)), 3)
    return returns


def factor_returns(seed: int, d: int = 10, n: int = 250) -> np.ndarray:
    """Assets x scenarios returns 0.6 f + noise: one common factor f and independent noise."""
    rng = np.random.default_rng(seed)
    f = rng.normal(0.05, 1.0, n)
    return 0.6 * f[None, :] + rng.normal(0.0, 1.0, (d, n))


def _instance_returns(column: str, k: int) -> np.ndarray:
    return factor_returns(k) if column in FACTOR_COLUMNS else sweep_instance(k)


def uneven_returns(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Small random returns and Dirichlet(0.5) scenario probabilities."""
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(3, 6)), int(rng.integers(10, 30))
    returns = np.round(rng.normal(0.1, 1.0, (d, n)), 3)
    return returns, rng.dirichlet(np.full(n, 0.5))


def verify_pair(k: int):
    """Small pair k, (Y, X) as (outcomes, probabilities) pairs.  X has 2 to 11 atoms.  Y is
    independent of X for k % 4 == 0, X contracted halfway to its mean for k % 4 == 1 (so
    the tail's mean term vanishes and a higher moment leads), and that contraction shifted
    by a seeded amount otherwise."""
    rng = np.random.default_rng([2, k])
    n = int(rng.integers(2, 12))
    x = np.round(rng.normal(0.0, 2.0, n), 2), rng.dirichlet(np.ones(n))
    if k % 4 == 0:
        m = int(rng.integers(2, 12))
        return (np.round(rng.normal(0.0, 2.0, m), 2), rng.dirichlet(np.ones(m))), x
    shift = 0.0 if k % 4 == 1 else float(np.round(rng.normal(0.0, 0.3), 3))
    return (0.5 * (x[0] + x[0] @ x[1]) + shift, x[1]), x


def large_verify_pair(k: int):
    """10^3-atom pair k: Y a contraction of X shifted up (k = 0), or an independent
    sample with uneven probabilities (k = 1)."""
    rng = np.random.default_rng([3, k])
    x = rng.normal(0.0, 1.0, 1000), np.full(1000, 1e-3)
    if k == 0:
        return (0.8 * x[0] + 0.01, x[1]), x
    return (rng.normal(0.05, 1.1, 1000), rng.dirichlet(np.full(1000, 4.0))), x


def _runs():
    """(column, instance, returns, probabilities or None, order, (beta, r) or None,
    benchmark shift)."""
    for column, (order, risk) in SWEEP_COLUMNS.items():
        for k in range(22):
            yield column, k, sweep_instance(k), None, order, risk, 0.0
    for column, (order, risk) in FACTOR_COLUMNS.items():
        for seed in range(3):
            yield column, seed, factor_returns(seed), None, order, risk, 0.0
    for order in (2.0, 2.5, 3.0, 4.0, 4.7):
        for beta in (0.0, 0.5, 0.9):
            for r in (1.0, 2.0, 3.0):
                yield "demo", f"{order:g}/{beta:g}/{r:g}", None, None, order, (beta, r), 0.0
    for seed in range(30):
        yield "uneven (4.7, .8, 3)", seed, *uneven_returns(seed), 4.7, (0.8, 3.0), 0.0
    for column, (order, risk) in SHIFTED_COLUMNS.items():
        for k in range(22):
            for shift in SHIFTS:
                yield column, f"{k}/{shift:g}", sweep_instance(k), None, order, risk, shift


def verify_runs(sd) -> list[dict]:
    """The certificate of every verify pair at every order of VERIFY_ORDERS."""
    pairs = [(k, verify_pair(k)) for k in range(40)]
    pairs += [(f"n1000-{k}", large_verify_pair(k)) for k in range(2)]
    out = []
    for order in VERIFY_ORDERS:
        for inst, (y, x) in pairs:
            rec = {"column": f"verify p{order:g}", "instance": inst}
            try:
                cert = sd.verify(sd.DiscreteRandomVariable(*y), sd.DiscreteRandomVariable(*x), order)
                rec.update({f: getattr(cert, f) for f in
                            ("dominates", "worst_t", "worst_gap", "upper_bound", "binding",
                             "checked_points")})
            except Exception as exc:  # a raising run is recorded, not fatal
                rec.update(binding=f"raised {exc!r}")
            out.append(rec)
    return out


def run_all(sd) -> list[dict]:
    demo = sd.demo_scenarios()
    out = []
    for column, inst, returns, probs, order, risk, shift in _runs():
        s = demo if returns is None else sd.ScenarioSet(returns, probs)
        bench = sd.portfolio_return_variable(s, sd.PortfolioWeights.equal(s.d))
        if shift:
            bench = sd.DiscreteRandomVariable(bench.outcomes + shift, bench.probabilities)
        rec = {"column": column, "instance": inst}
        try:
            if risk is None:
                rep = sd.optimize_max_return(s, bench, order)
                score = None if rep.weights is None else -rep.expected_return
            else:
                rep = sd.optimize_min_risk(s, bench, order, sd.RiskSpec(*risk))
                score = rep.risk_value
            rec.update(score=score, converged=bool(rep.converged), newton=rep.iterations["newton"],
                       message=rep.message, infeasible=bool(rep.infeasible),
                       rounds=rep.iterations["constraint_rounds"])
        except Exception as exc:  # a raising run is recorded, not fatal
            rec.update(score=None, converged=False, newton=0, message=f"raised {exc!r}",
                       infeasible=False, rounds=0)
        out.append(rec)
    return out + verify_runs(sd)


def lp_differences(sd, runs: list[dict]) -> dict[str, float]:
    """Largest |objective - HiGHS optimum| of each LP column; empty without scipy."""
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        return {}
    from tests.oracles import cvar_order2_lp, max_return_order2_lp

    worst = dict.fromkeys(LP_COLUMNS, 0.0)
    for rec in runs:
        if rec["column"] not in worst:
            continue
        s = sd.ScenarioSet(_instance_returns(rec["column"], rec["instance"]))
        b = sd.portfolio_return_variable(s, sd.PortfolioWeights.equal(s.d))
        args = (s.returns, s.scenario_probabilities, b.outcomes, b.probabilities)
        risk = {**SWEEP_COLUMNS, **FACTOR_COLUMNS}[rec["column"]][1]
        if risk is None:
            lp = -max_return_order2_lp(*args)
        else:
            lp = cvar_order2_lp(*args, risk[0])
        diff = float("inf") if rec["score"] is None else abs(rec["score"] - lp)
        worst[rec["column"]] = max(worst[rec["column"]], diff)
    return worst


def highs_disagreements(sd, runs: list[dict]) -> dict[str, int]:
    """Order-2 shifted runs whose infeasible verdict differs from HiGHS's; empty without scipy."""
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        return {}
    from tests.oracles import order2_feasible_lp

    out = {}
    for column, (order, _) in SHIFTED_COLUMNS.items():
        if order != 2.0:
            continue
        out[column] = 0
        for rec in runs:
            if rec["column"] != column:
                continue
            k, shift = rec["instance"].split("/")
            s = sd.ScenarioSet(sweep_instance(int(k)))
            b = sd.portfolio_return_variable(s, sd.PortfolioWeights.equal(s.d))
            feasible = order2_feasible_lp(s.returns, s.scenario_probabilities,
                                          b.outcomes + float(shift), b.probabilities)
            out[column] += rec["infeasible"] == feasible
    return out


def _outcomes(rows: list[dict]) -> str:
    infeasible = sum(r["infeasible"] for r in rows)
    converged = sum(r["converged"] for r in rows)
    return (f"infeasible {infeasible:2d} converged {converged:2d} unconverged "
            f"{len(rows) - infeasible - converged:2d} rounds {sum(r['rounds'] for r in rows):4d}")


def _verdicts(rows: list[dict]) -> str:
    return (f"dominates {sum(bool(r.get('dominates')) for r in rows):2d} checked_points "
            f"{sum(r.get('checked_points', 0) for r in rows):6d}")


def _better_equal_worse(rows: list[dict], base: dict) -> str:
    """How many scores are below, within or above their baseline's by 1e-9 max(1, |baseline|)."""
    tally = [0, 0, 0]
    for r in rows:
        b = base.get((r["column"], str(r["instance"])))
        if b is None or b["score"] is None or r["score"] is None:
            continue
        tol = 1e-9 * max(1.0, abs(b["score"]))
        tally[0 if r["score"] < b["score"] - tol else 2 if r["score"] > b["score"] + tol else 1] += 1
    return f"better/equal/worse {tally[0]}/{tally[1]}/{tally[2]}"


def summarize(runs: list[dict], baseline: list[dict] | None) -> list[str]:
    base = {(b["column"], str(b["instance"])): b for b in baseline or []}
    columns = list(dict.fromkeys(r["column"] for r in runs))
    lines = []
    for column in columns:
        rows = [r for r in runs if r["column"] == column]
        if column in SHIFTED_COLUMNS or column.startswith("verify"):
            count = _outcomes if column in SHIFTED_COLUMNS else _verdicts
            old = [b for b in baseline or [] if b["column"] == column]
            line = f"{column:26s} {count(rows)} of {len(rows)}"
            if old:
                line += f" | baseline {count(old)}"
                if column in SHIFTED_COLUMNS:
                    line += f"; {_better_equal_worse(rows, base)}"
            lines.append(line)
            continue
        line = (f"{column:26s} converged {sum(r['converged'] for r in rows):3d}/{len(rows):<3d}"
                f" newton {sum(r['newton'] for r in rows):6d}")
        if baseline is not None:
            old = [base.get((column, str(r["instance"]))) for r in rows]
            line += (f" | baseline converged {sum(bool(b and b['converged']) for b in old):3d},"
                     f" newton {sum(b['newton'] for b in old if b):6d};"
                     f" {_better_equal_worse(rows, base)}")
        lines.append(line)
    return lines


def parity(runs: list[dict], baseline: list[dict]) -> list[str]:
    """How many runs equal their baseline record in every field either records, then
    the first 10 runs that do not, with each differing field's baseline and new value.

    Values compare by their JSON text, so floats must match bit for bit.
    """
    base = {(b["column"], str(b["instance"])): b for b in baseline}
    differ = []
    for r in runs:
        b = base.get((r["column"], str(r["instance"])))
        if b is None:
            differ.append((r, ["no baseline record"]))
            continue
        fields = [f"{f} {b.get(f)!r} -> {r.get(f)!r}" for f in {**b, **r}
                  if f not in ("column", "instance") and json.dumps(r.get(f)) != json.dumps(b.get(f))]
        if fields:
            differ.append((r, fields))
    lines = [f"{len(runs) - len(differ)} of {len(runs)} runs match the baseline in every field"]
    for r, fields in differ[:10]:
        lines.append(f"  {r['column']} {r['instance']}: " + "; ".join(fields))
    if len(differ) > 10:
        lines.append(f"  ... and {len(differ) - 10} more")
    return lines


def solver_changes(runs: list[dict], baseline: list[dict]) -> list[str]:
    """Every optimizer run whose converged or infeasible flag or Newton count differs
    from its baseline record, or whose objective moved by more than
    1e-10 max(1, |baseline|), with those fields and its rounds, baseline -> new."""
    base = {(b["column"], str(b["instance"])): b for b in baseline}
    listed = []
    for r in runs:
        b = base.get((r["column"], str(r["instance"])))
        if b is None or "newton" not in r:
            continue
        old, new = b["score"], r["score"]
        moved = (old is None) != (new is None) or (
            old is not None and abs(new - old) > 1e-10 * max(1.0, abs(old)))
        fields = [f"{f} {b[f]!r} -> {r[f]!r}" for f in ("converged", "infeasible", "newton")
                  if b[f] != r[f]]
        if fields or moved:
            if moved:
                fields.append(f"score {old!r} -> {new!r}")
            fields.append(f"rounds {b['rounds']} -> {r['rounds']}")
            listed.append(f"  {r['column']} {r['instance']}: " + "; ".join(fields))
    return [f"{len(listed)} optimizer runs changed a flag or the Newton count, or moved the "
            "objective by more than 1e-10 max(1, |baseline|)", *listed]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file for this run's records")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the stochdom package")
    ap.add_argument("--baseline", help="JSON file written by an earlier run")
    args = ap.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT)]
    import stochdom as sd

    runs = run_all(sd)
    Path(args.out).write_text(json.dumps(runs, indent=1), encoding="utf-8")
    baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8")) if args.baseline else None
    print("\n".join(summarize(runs, baseline)))
    for column, diff in lp_differences(sd, runs).items():
        print(f"{column}: largest |objective - HiGHS LP| {diff:.2e}")
    for column, count in highs_disagreements(sd, runs).items():
        print(f"{column}: {count} infeasible verdicts disagree with HiGHS")
    if baseline is not None:
        print("\n".join(solver_changes(runs, baseline)))
        print("\n".join(parity(runs, baseline)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
