"""Repeat benchmark runs and report each metric's median and quartile spread.

    python3 perfbench/steady.py                       # 10 runs per workload, seeds 1..10
    python3 perfbench/steady.py --runs 5 --workload min-risk
    python3 perfbench/steady.py --runs 3 --trace      # per-layer runs, all on one seed

Run from the repository root.  Runs go one at a time, each in its own
process, with the command, run length and workloads of BENCHMARK.json.
For every end-to-end metric the spread is (Q3 - Q1) / median over the
runs, with quartiles from statistics.quantiles(values, n=4), and is
compared with the metric's bound: "steady" below a third of the bound,
"ok" within it, "WIDE" beyond it.  The share of failed operations must
be the same in every run.  With --trace, every run uses
the same seed and the per-layer counts must repeat exactly.  Exits 1
when any of these fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"steady: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(median, Q1, Q3); the middle cut of statistics.quantiles is the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    ok = True
    summary = {}
    for workload in args.workload or names:
        results = []
        for i in range(args.runs):
            seed = 1 if args.trace else 1 + i
            results.append(run_once(bench, workload, seed, int(args.trace)))
            print(f"{workload} run {i + 1}/{args.runs} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()),
                  file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        ok &= correct and len(shares) == 1
        print(f"\n{workload}: {args.runs} runs, correct {correct}, failed share "
              + ", ".join(f"{s:.6f}" for s in sorted(shares))
              + ("" if len(shares) == 1 else "  DIFFERS"))
        rows = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3 = quartiles(values)
            rel = (q3 - q1) / med if med else 0.0
            if args.trace:
                status = ("repeats" if len(set(values)) == 1 else "DIFFERS") if m["unit"] == "count" else ""
                ok &= status != "DIFFERS"
            else:
                status = "steady" if rel < m["bound"] / 3 else "ok" if rel <= m["bound"] else "WIDE"
                ok &= status != "WIDE"
            bound = f"bound {m['bound']:.2f}" if "bound" in m else ""
            print(f"  {m['name']:30s} median {med:14.6f} {m['unit']:5s} Q1 {q1:12.6f} Q3 {q3:12.6f} "
                  f"spread {rel:7.4f} {bound:10s} {status}")
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "values": values,
                               "status": status}
        summary[workload] = {"correct": correct, "failed_shares": sorted(shares), "metrics": rows}

    out = ROOT / ".perfbench_runs" / f"steady-trace{int(args.trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2))
    print(f"\nsummary written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
