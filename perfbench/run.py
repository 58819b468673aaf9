"""Run one benchmark workload against the stochdom sources in ./src.

    python3 perfbench/run.py --workload verify-scaling --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload's operations run as passes,
one after another, by a single caller, until --seconds have gone by;
each pass runs every operation once.  Outputs are checked against the
oracles after the timed passes.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics.  Every metric is printed with
its unit, a JSON record goes to .perfbench_runs/, and the last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import os

# Fixed before numpy loads.  One BLAS thread: on a 2-vCPU machine shared
# with other work, whether a second BLAS thread finds a free core swung
# the verify-scaling pass time by up to a fifth between runs.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SD_SEED", None)  # the CLI would take its solver seed from it

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# On a 2-vCPU virtual machine shared with other work, import speed
# switches between regimes about 1.5x apart that last from a fraction of
# a second to a few seconds; 15 set-ups (under a second) often fell in
# one regime, and their median spread by a third between runs.  101
# (about 5 s) span several.
SETUP_REPEATS = 101
ROOT = Path.cwd()
SRC = ROOT / "src"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_stochdom():
    """Import stochdom afresh from ./src, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "stochdom" or m.startswith("stochdom.")]:
        del sys.modules[name]
    sd = importlib.import_module("stochdom")
    if Path(sd.__file__).resolve().parent != (SRC / "stochdom").resolve():
        raise SystemExit(f"perfbench: imported stochdom from {sd.__file__}, not from ./src")
    importlib.import_module("stochdom.cli")
    return sd


def setup(args, workdir):
    """Import stochdom and build the inputs SETUP_REPEATS times; return the last build."""
    times = []
    for _ in range(SETUP_REPEATS):
        # the previous build's garbage is freed here, not inside the next one's timing
        gc.collect()
        t0 = time.perf_counter()
        sd = import_stochdom()
        api = types.SimpleNamespace(
            verify=sd.verify,
            optimize_max_return=sd.optimize_max_return,
            optimize_min_risk=sd.optimize_min_risk,
            cli_main=sys.modules["stochdom.cli"].main,
        )
        ops = workloads.WORKLOADS[args.workload](sd, api, args.seed, workdir)
        times.append(time.perf_counter() - t0)
    return ops, api, statistics.median(times)


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(ops, recorder=None) -> tuple[dict, float, float]:
    outputs = {}
    c0, t0 = cpu_seconds(), time.perf_counter()
    for op in ops:
        try:
            if recorder is None:
                outputs[op.name] = op.call()
            else:
                with recorder.span("op:" + op.name):
                    outputs[op.name] = op.call()
        except Exception as exc:  # a raising operation is a failed operation
            outputs[op.name] = exc
    return outputs, time.perf_counter() - t0, cpu_seconds() - c0


def timed_passes(ops, api, seconds: float, traced: bool):
    """Run passes until `seconds` have gone by.

    Untraced runs time every pass.  Traced runs alternate an untraced and
    a traced pass, so both see the same machine state, and keep the
    per-layer metrics of the traced ones.
    """
    recorder = spans.Recorder() if traced else None
    passes = []          # (outputs, wall, cpu, traced)
    layers = []
    start = time.perf_counter()
    while True:
        trace_this = traced and len(passes) % 2 == 1
        if trace_this:
            recorder.install(api)
            lo = len(recorder.spans)
        try:
            outputs, wall, cpu = run_pass(ops, recorder if trace_this else None)
        finally:
            if trace_this:
                recorder.uninstall()
        if trace_this:
            layers.append(spans.layer_metrics(recorder.spans, lo, len(recorder.spans)))
        passes.append((outputs, wall, cpu, trace_this))
        if time.perf_counter() - start >= seconds and (not traced or len(passes) % 2 == 0):
            break
    return passes, layers, recorder


def check_outputs(ops, passes):
    """Check every pass's outputs; return (attempted, failed, failures by op).

    A failure is the known fault only when the operation has one and the
    failed checks are exactly the one that fault fails; anything else,
    a raised exception included, is unexpected.
    """
    references = {op.name: op.reference() for op in ops}
    failures: dict[str, dict] = {}
    attempted = failed = 0
    for outputs, *_ in passes:
        for op in ops:
            attempted += 1
            out = outputs[op.name]
            if isinstance(out, Exception):
                names = {f"raised:{type(out).__name__}"}
            else:
                names = set(op.check(out, references[op.name], outputs))
            if names:
                failed += 1
                entry = failures.setdefault(op.name, {"checks": [], "passes": 0, "unexpected": 0,
                                                      "known_fault": op.fault})
                entry["passes"] += 1
                entry["unexpected"] += names != {op.fault_check}
                entry["checks"] = sorted(set(entry["checks"]) | names)
    return attempted, failed, failures


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())   # metric names and units
    if not (SRC / "stochdom" / "__init__.py").is_file():
        print("perfbench: no src/stochdom here; run from the repository root", file=sys.stderr)
        return 2
    if importlib.util.find_spec("scipy") is None:
        print("perfbench: scipy is required by the output oracles", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench_runs" / label
    workdir.mkdir(parents=True, exist_ok=True)

    ops, api, setup_s = setup(args, workdir)
    passes, layers, recorder = timed_passes(ops, api, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, failures = check_outputs(ops, passes)
    correct = not any(f["unexpected"] for f in failures.values())

    untraced = [p for p in passes if not p[3]]
    pass_s = statistics.median(p[1] for p in untraced)
    if args.trace:
        values = spans.median_metrics(layers)
        values["dominance.verify.peak_mb"] = recorder.verify_peak_mb()
        values["trace.overhead_s"] = statistics.median(p[1] for p in passes if p[3]) - pass_s
        declared = bench["per_layer"]
        counts = [m["name"] for m in declared if m["unit"] == "count"]
        counts_repeat = all(all(lm[k] == layers[0][k] for k in counts) for lm in layers)
        recorder.write(workdir / "spans.jsonl")
    else:
        values = {
            "setup_s": setup_s,
            "pass_s": pass_s,
            "cpu_s": statistics.median(p[2] for p in untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        declared = bench["end_to_end"]
        counts_repeat = None
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    import scipy

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes), "pass_wall_s": [p[1] for p in passes], "pass_cpu_s": [p[2] for p in passes],
        "pass_traced": [p[3] for p in passes], "operations": [op.name for op in ops],
        "attempted": attempted, "failed": failed, "failures": failures, "correct": correct,
        "counts_repeat": counts_repeat,
        "metrics": metrics,
        "git_sha": git_sha(), "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": NPROC, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"operations {len(ops)}  attempted {attempted}  failed {failed}")
    for name, entry in failures.items():
        tag = "UNEXPECTED" if entry["unexpected"] else "known fault"
        print(f"  failed {name}: {', '.join(entry['checks'])} ({tag})")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6f} {m['unit']}")
    if counts_repeat is False:
        print("  per-layer counts differ between traced passes")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
