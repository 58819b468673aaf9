"""Span recorder for the traced run, and the per-layer metrics taken from it.

Layers are timed from outside: the recorder swaps wrappers in for the
public functions each layer exposes, at the names its callers look them
up by, and swaps the originals back afterwards.  stochdom's optimizer
imports verify, minimize_phi and higher_order_risk by name, so they are
replaced in `stochdom.optimize`, not where they are defined.

Spans stay in memory as [name, parent index, start, end, attrs] and are
written out when the run ends.  A span's self time is its duration minus
the durations of its children; calls are sequential, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
import tracemalloc

# (module, attribute, span name); the benchmark's own calls go through
# the api table and are listed with module None
WRAPPED = (
    ("stochdom.optimize", "verify", "dominance.verify"),
    ("stochdom.optimize", "pso_search", "optimize.pso"),
    ("stochdom.optimize", "newton_refine", "optimize.newton"),
    ("stochdom.optimize", "minimize_phi", "risk.minimize_phi"),
    ("stochdom.optimize", "higher_order_risk", "risk.higher_order_risk"),
    ("stochdom.dominance", "critical_thresholds", "dominance.thresholds"),
    ("stochdom.cli", "load_scenarios", "dataio.load"),
    ("stochdom.cli", "load_variable", "dataio.load"),
    ("stochdom.cli", "emit_report", "report.emit"),
    ("stochdom.cli", "emit_plot", "report.emit"),
    ("stochdom.cli", "verify", "dominance.verify"),
    ("stochdom.cli", "optimize_max_return", "optimize.solve"),
    ("stochdom.cli", "optimize_min_risk", "optimize.solve"),
    (None, "verify", "dominance.verify"),
    (None, "optimize_max_return", "optimize.solve"),
    (None, "optimize_min_risk", "optimize.solve"),
    (None, "cli_main", "cli.main"),
)


class Recorder:
    """Spans of the traced passes, and the wrappers that record them."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.installed: list[tuple] = []
        self.verify_calls: list[tuple] = []   # verify calls of the last traced pass

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[4] = attrs
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn):
        attrs_of = _ATTRS.get(name)

        if name == "dominance.thresholds":
            @functools.wraps(fn)
            def wrapper(y, x, p, cfg=None, diagnostics=None):
                diag = {} if diagnostics is None else diagnostics
                idx = self.open(name)
                try:
                    return fn(y, x, p, cfg, diag)
                finally:
                    self.close(idx, {"root_fallbacks": diag.get("root_fallback_intervals", 0)})
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.close(idx, attrs_of(out) if attrs_of and out is not None else None)
                if name == "dominance.verify":
                    self.verify_calls.append((fn, args, kwargs))
        return wrapper

    def verify_peak_mb(self) -> float:
        """Largest tracemalloc peak of one verify call, replaying the last traced pass's calls.

        tracemalloc slows every allocation, so it runs on a replay of the
        verify calls after the timed passes, never inside them.
        """
        peak = 0
        for fn, args, kwargs in self.verify_calls:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak / 2**20

    def install(self, api) -> None:
        self.verify_calls.clear()
        for module, attr, name in WRAPPED:
            owner = api if module is None else sys.modules[module]
            original = getattr(owner, attr)
            self.installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "start": start,
                                     "end": end, "attrs": attrs}) + "\n")


def _newton_attrs(out):
    diag = out[2]
    return {"iterations": diag.iterations, "converged": int(diag.converged)}


def _solve_attrs(report):
    return {"rounds": report.iterations["constraint_rounds"], "converged": int(report.converged)}


_ATTRS = {
    "dominance.verify": lambda cert: {"checked_points": cert.checked_points},
    "optimize.newton": _newton_attrs,
    "optimize.solve": _solve_attrs,
}


def layer_metrics(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer totals over spans[lo:hi], the spans of one pass."""
    ids = range(lo, hi)
    dur = {i: spans[i][3] - spans[i][2] for i in ids}
    child_time = dict.fromkeys(ids, 0.0)
    for i in ids:
        if spans[i][1] in child_time:
            child_time[spans[i][1]] += dur[i]
    named: dict[str, list[int]] = {}
    for i in ids:
        named.setdefault(spans[i][0], []).append(i)

    def total(name):
        return sum(dur[i] for i in named.get(name, ()))

    def self_time(name):
        return sum(dur[i] - child_time[i] for i in named.get(name, ()))

    def count(name):
        return len(named.get(name, ()))

    def attr_sum(name, key):
        return sum(spans[i][4][key] for i in named.get(name, ()) if spans[i][4])

    solves = set(named.get("optimize.solve", ()))
    verifies = named.get("dominance.verify", ())
    return {
        "dominance.verify.calls": count("dominance.verify"),
        "dominance.verify.s": total("dominance.verify"),
        "dominance.thresholds.s": total("dominance.thresholds"),
        "dominance.gap.s": self_time("dominance.verify"),
        "dominance.thresholds.count": attr_sum("dominance.verify", "checked_points"),
        "dominance.root_fallbacks": attr_sum("dominance.thresholds", "root_fallbacks"),
        "risk.minimize_phi.calls": count("risk.minimize_phi"),
        "risk.minimize_phi.s": total("risk.minimize_phi"),
        "risk.higher_order_risk.calls": count("risk.higher_order_risk"),
        "risk.higher_order_risk.s": total("risk.higher_order_risk"),
        "optimize.solve.calls": count("optimize.solve"),
        "optimize.solve.s": total("optimize.solve"),
        "optimize.pso.s": total("optimize.pso"),
        "optimize.pso.self_s": self_time("optimize.pso"),
        "optimize.newton.calls": count("optimize.newton"),
        "optimize.newton.s": total("optimize.newton"),
        "optimize.newton.iterations": attr_sum("optimize.newton", "iterations"),
        "optimize.newton.converged": attr_sum("optimize.newton", "converged"),
        "optimize.cg.rounds": attr_sum("optimize.solve", "rounds"),
        "optimize.cg.verify_calls": sum(1 for i in verifies if spans[i][1] in solves),
        "optimize.self_s": self_time("optimize.solve"),
        "optimize.converged": attr_sum("optimize.solve", "converged"),
        "cli.main.calls": count("cli.main"),
        "cli.main.self_s": self_time("cli.main"),
        "dataio.load.s": total("dataio.load"),
        "report.emit.s": total("report.emit"),
    }


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
