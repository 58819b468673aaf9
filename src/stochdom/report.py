"""Run reports: paper-style stdout lines, a fixed-schema JSON document,
and a deterministic SVG allocation chart."""

from __future__ import annotations

import math

import numpy as np

from .dominance import DominanceCertificate
from .optimize import SolveReport

JSON_KEYS = (
    "command", "order", "weights", "active_thresholds", "q_star", "objective",
    "expected_return", "benchmark_return", "risk_value", "residuals",
    "converged", "infeasible", "seed",
)

_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc949", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)


def _fmt_order(p: float) -> str:
    return format(float(p), "g")


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        # 17 significant digits round-trip IEEE doubles exactly
        return format(float(v), ".17g")
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(v, dict):
        inner = ", ".join(f'{_json_value(k)}: {_json_value(val)}' for k, val in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value(item) for item in v) + "]"
    raise TypeError(f"cannot serialize {type(v)!r}")


def report_payload(report, command: str, order: float, seed: int | None) -> dict:
    """Assemble the fixed-key JSON payload for a run result."""
    if isinstance(report, DominanceCertificate):
        return {
            "command": command,
            "order": float(order),
            "weights": [],
            "active_thresholds": [report.worst_t],
            "q_star": None,
            "objective": report.worst_gap,
            "expected_return": None,
            "benchmark_return": None,
            "risk_value": None,
            "residuals": {"simplex": None, "dominance": max(0.0, report.worst_gap)},
            "converged": True,
            "infeasible": not report.dominates,
            "seed": seed,
        }
    r: SolveReport = report
    return {
        "command": command,
        "order": float(order),
        "weights": [] if r.weights is None else [float(w) for w in r.weights.weights],
        "active_thresholds": [float(t) for t in r.active_thresholds],
        "q_star": r.q_star,
        "objective": r.objective_value,
        "expected_return": r.expected_return,
        "benchmark_return": r.benchmark_return,
        "risk_value": r.risk_value,
        "residuals": {"simplex": r.simplex_residual, "dominance": r.dominance_residual},
        "converged": r.converged,
        "infeasible": r.infeasible,
        "seed": seed,
    }


def render_json(payload: dict) -> str:
    return _json_value(payload) + "\n"


def render_text(report, *, order: float, verbose: bool = False, asset_labels=None) -> str:
    """Human-readable report lines, mirroring the package's console output."""
    p = _fmt_order(order)
    lines: list[str] = []
    if isinstance(report, DominanceCertificate):
        if report.dominates:
            lines.append(f"Y dominates X in stochastic order {p}")
        else:
            lines.append(f"Y does not dominate X in stochastic order {p}")
        if verbose:
            lines.append(f"Worst threshold: t = {report.worst_t:.10g}")
            lines.append(f"Worst gap: {report.worst_gap:.10g} (tolerance {report.tolerance:g})")
            lines.append(f"Thresholds checked: {report.checked_points}")
            lines.append(f"Decided by: {report.binding}")
            lines.append(f"Certified supremum of the gap: {report.upper_bound:.10g}")
        return "\n".join(lines) + "\n"

    r: SolveReport = report
    if r.infeasible:
        lines.append(
            f"No allocation satisfies the stochastic dominance constraint of order {p}."
        )
        if r.message:
            lines.append(r.message)
        return "\n".join(lines) + "\n"

    w = r.weights.weights
    labels = list(asset_labels) if asset_labels is not None else [f"Asset_{i + 1}" for i in range(w.size)]
    lines.append(f"Optimal allocation (stochastic order {p}):")
    for label, wi in zip(labels, w):
        lines.append(f"  {label:<12s} {100.0 * wi:6.1f}%")
    lines.append(
        f"Expected return: {r.expected_return:.4g}% (benchmark: {r.benchmark_return:.4g}%)"
    )
    if r.risk_value is not None:
        lines.append(f"Risk value: {r.risk_value:.6g} (q* = {r.q_star:.6g})")
    if verbose:
        lines.append(f"Simplex Constraints residuals: {r.simplex_residual:.17g}")
        lines.append(f"Stochastic Dominance Constraints residuals: {r.dominance_residual:.17g}")
        lines.append("Active thresholds: " + ", ".join(f"{t:.10g}" for t in r.active_thresholds))
        it = r.iterations
        lines.append(
            "Iterations: newton={newton} constraint_rounds={constraint_rounds}".format(**it)
        )
        lines.append(f"Converged: {str(r.converged).lower()}")
        if r.message:
            lines.append(f"Reason: {r.message}")
    return "\n".join(lines) + "\n"


def emit_report(report, verbose: bool = False, *, command: str, order: float,
                seed: int | None = None, json_path=None, asset_labels=None) -> str:
    """Render the report text and optionally write the JSON document."""
    text = render_text(report, order=order, verbose=verbose, asset_labels=asset_labels)
    if json_path is not None:
        payload = report_payload(report, command, order, seed)
        with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_json(payload))
    return text


def _wedge_path(cx, cy, radius, frac0, frac1) -> str:
    # angles measured from 12 o'clock, clockwise
    a0 = 2.0 * math.pi * frac0 - 0.5 * math.pi
    a1 = 2.0 * math.pi * frac1 - 0.5 * math.pi
    x0, y0 = cx + radius * math.cos(a0), cy + radius * math.sin(a0)
    x1, y1 = cx + radius * math.cos(a1), cy + radius * math.sin(a1)
    large = 1 if (frac1 - frac0) > 0.5 else 0
    return (
        f'M {cx:.2f} {cy:.2f} L {x0:.4f} {y0:.4f} '
        f'A {radius:.2f} {radius:.2f} 0 {large} 1 {x1:.4f} {y1:.4f} Z'
    )


def emit_plot(report: SolveReport, path, asset_labels=None) -> None:
    """Write a self-contained SVG pie chart of the optimal allocation.

    Byte output is deterministic for identical reports.
    """
    if report.infeasible or report.weights is None:
        raise ValueError("cannot plot an infeasible report: no allocation to draw")
    w = np.asarray(report.weights.weights, dtype=float)
    labels = list(asset_labels) if asset_labels is not None else [f"Asset_{i + 1}" for i in range(w.size)]
    fracs = w / w.sum()
    cx, cy, radius = 200.0, 190.0, 150.0
    parts: list[str] = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="420" '
        'viewBox="0 0 640 420" font-family="Helvetica, Arial, sans-serif">'
    )
    parts.append('<rect width="640" height="420" fill="#ffffff"/>')
    parts.append('<text x="20" y="30" font-size="16" fill="#222222">Optimal allocation</text>')

    if fracs.max() >= 1.0 - 1e-12:
        i = int(np.argmax(fracs))
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius:.2f}" fill="{color}"/>')
    else:
        cum = 0.0
        for i, f in enumerate(fracs):
            if f <= 0.0:
                continue
            color = _PALETTE[i % len(_PALETTE)]
            parts.append(f'<path d="{_wedge_path(cx, cy, radius, cum, cum + f)}" fill="{color}"/>')
            cum += f

    legend_y = 70
    for i, (label, wi) in enumerate(zip(labels, w)):
        color = _PALETTE[i % len(_PALETTE)]
        y = legend_y + 26 * i
        # XML text escapes by hand: importing xml.sax.saxutils.escape pulls in
        # urllib.request and adds about 7 MB of resident memory
        label = str(label).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<rect x="400" y="{y - 12}" width="14" height="14" fill="{color}"/>')
        parts.append(
            f'<text x="422" y="{y}" font-size="14" fill="#222222">{label} {100.0 * wi:.1f}%</text>'
        )

    anno_y = 382
    parts.append(
        f'<text x="20" y="{anno_y}" font-size="14" fill="#222222">'
        f'Optimized expected return: {report.expected_return:.4g}%   '
        f'Benchmark return: {report.benchmark_return:.4g}%</text>'
    )
    if report.risk_value is not None:
        parts.append(
            f'<text x="20" y="{anno_y + 20}" font-size="14" fill="#222222">'
            f'Risk value: {report.risk_value:.6g} (q* = {report.q_star:.6g})</text>'
        )
    parts.append("</svg>")
    data = "\n".join(parts) + "\n"
    with open(path, "wb") as fh:
        fh.write(data.encode("utf-8"))
