"""Independent brute-force oracles used to freeze expected test values.

Everything here is computed by direct summation, dense grids, or
sorting, deliberately avoiding the library's own evaluation paths.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def lpm_direct(outcomes, probabilities, t: float, k: float) -> float:
    """E[(t - Z)_+^k] by plain per-atom summation."""
    total = 0.0
    for z, pr in zip(outcomes, probabilities):
        if z < t:
            total += pr * (t - z) ** k if k > 0 else pr
    return total


def gap_direct(y_out, y_pr, x_out, x_pr, p: float, t: float) -> float:
    k = p - 1.0
    return lpm_direct(y_out, y_pr, t, k) - lpm_direct(x_out, x_pr, t, k)


def _gap_on_grid(y_out, y_pr, x_out, x_pr, p: float, ts: np.ndarray) -> np.ndarray:
    """Vectorized-over-t gap evaluation with an integer-exponent fast path."""
    k = p - 1.0
    out = np.zeros_like(ts)
    for outcomes, probs, sign in ((y_out, y_pr, 1.0), (x_out, x_pr, -1.0)):
        for z, pr in zip(outcomes, probs):
            d = np.maximum(ts - z, 0.0)
            if k == 1.0:
                term = d
            elif k == 2.0:
                term = d * d
            elif k == 3.0:
                term = d * d * d
            else:
                term = d**k
            out += sign * pr * term
    return out


def dense_grid_gap_max(y_out, y_pr, x_out, x_pr, p: float,
                       n_points: int = 10**6, tail_horizon: float = 10.0) -> float:
    """Max of the dominance gap on a dense grid, with golden-section refinement.

    The refinement around the best grid point removes the O(spacing^2)
    bias of the raw grid so maxima can be compared at tight tolerances.
    """
    atoms = np.unique(np.concatenate([y_out, x_out]))
    lo, hi = float(atoms[0]), float(atoms[-1])
    span = hi - lo if hi > lo else max(1.0, abs(hi))
    ts = np.linspace(lo - 0.05 * span, hi + tail_horizon * span, n_points)
    g = _gap_on_grid(y_out, y_pr, x_out, x_pr, p, ts)
    i = int(np.argmax(g))
    best = float(g[i])

    def f(t: float) -> float:
        return float(_gap_on_grid(y_out, y_pr, x_out, x_pr, p, np.array([t]))[0])

    a = float(ts[max(i - 1, 0)])
    b = float(ts[min(i + 1, n_points - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a < 1e-13:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return max(best, f(a), f(b), f(0.5 * (a + b)))


def order2_supremum_exact(y_out, y_pr, x_out, x_pr) -> float:
    """sup over t of E[(t - Y)_+] - E[(t - X)_+], in exact rational arithmetic.

    The gap is piecewise linear with kinks at the atoms, and beyond the
    last atom it tends to mean(X) - mean(Y), so the supremum is the
    larger of the gap at the atoms and that mean condition.  Every float
    input is a dyadic rational, so the running masses and first moments
    below each atom are exact Fractions.
    """
    events = sorted([(float(z), float(pr), 0) for z, pr in zip(y_out, y_pr)]
                    + [(float(z), float(pr), 1) for z, pr in zip(x_out, x_pr)])
    mass, first = [Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]
    best = None
    i = 0
    while i < len(events):
        t = Fraction(events[i][0])
        gap = (t * mass[0] - first[0]) - (t * mass[1] - first[1])
        best = gap if best is None else max(best, gap)
        while i < len(events) and events[i][0] == t:
            _, pr, side = events[i]
            mass[side] += Fraction(pr)
            first[side] += Fraction(pr) * t
            i += 1
    return float(max(best, first[1] - first[0]))


def cvar_sorted_tail(losses, probabilities, beta: float) -> float:
    """Expected loss in the worst (1 - beta) tail, splitting the straddling atom."""
    losses = np.asarray(losses, dtype=float)
    probabilities = np.asarray(probabilities, dtype=float)
    order = np.argsort(-losses, kind="stable")
    tail = 1.0 - beta
    acc = 0.0
    mass = 0.0
    for i in order:
        take = min(float(probabilities[i]), tail - mass)
        acc += take * float(losses[i])
        mass += take
        if mass >= tail - 1e-15:
            break
    return acc / tail


def phi_direct(losses, probabilities, beta: float, r: float, q: float) -> float:
    """q + (1/(1-beta)) * (E[(L-q)_+^r])^(1/r) by direct summation."""
    s = 0.0
    for L, pr in zip(losses, probabilities):
        if L > q:
            s += pr * (L - q) ** r
    return q + s ** (1.0 / r) / (1.0 - beta)


def sd2_feasible_mask(W: np.ndarray, returns: np.ndarray, scen_probs: np.ndarray,
                      bench_out: np.ndarray, bench_pr: np.ndarray, tol: float) -> np.ndarray:
    """Order-2 dominance feasibility of many weight rows at once.

    For order 2 the gap is piecewise linear in t with kinks only at
    atoms of either side, and tends to mean(X) - mean(Y) for large t, so
    checking all atoms plus the mean condition is exact.
    """
    outs = W @ returns                      # (m, n)
    bench_ts = np.unique(bench_out)
    bench_lpm = np.array([lpm_direct(bench_out, bench_pr, t, 1.0) for t in bench_ts])
    ok = np.ones(W.shape[0], dtype=bool)
    # portfolio atoms: every scenario value of every row is a kink candidate
    for j, t in enumerate(bench_ts):
        port = np.maximum(t - outs, 0.0) @ scen_probs
        ok &= port - bench_lpm[j] <= tol
    # kinks from the portfolio side: evaluate the gap at each row's own outcomes
    bench_mean = float(np.dot(bench_pr, bench_out))
    for col in range(outs.shape[1]):
        t_col = outs[:, col]
        port = (np.maximum(t_col[:, None] - outs, 0.0) * scen_probs[None, :]).sum(axis=1)
        bench = np.array([lpm_direct(bench_out, bench_pr, float(t), 1.0) for t in t_col])
        ok &= port - bench <= tol
    row_means = outs @ scen_probs
    ok &= bench_mean - row_means <= tol
    return ok


def max_return_grid_search(returns: np.ndarray, scen_probs: np.ndarray,
                           bench_out: np.ndarray, bench_pr: np.ndarray,
                           step: float = 1e-4, tol: float = 1e-8,
                           extra_candidates: np.ndarray | None = None):
    """Exhaustive order-2 max-return search over the 2-asset simplex.

    ``extra_candidates`` lets a known-feasible point (the benchmark
    weights) join the grid, since a sliver-thin feasible set can slip
    between grid points entirely.
    """
    assert returns.shape[0] == 2
    w1 = np.arange(0.0, 1.0 + step / 2, step)
    W = np.column_stack([w1, 1.0 - w1])
    if extra_candidates is not None:
        W = np.vstack([W, np.atleast_2d(extra_candidates)])
    ok = sd2_feasible_mask(W, returns, scen_probs, bench_out, bench_pr, tol)
    if not ok.any():
        return None
    means = (W @ returns) @ scen_probs
    means[~ok] = -np.inf
    i = int(np.argmax(means))
    return float(means[i]), W[i]


def cvar_order2_lp(returns: np.ndarray, scen_probs: np.ndarray, bench_out: np.ndarray,
                   bench_pr: np.ndarray, beta: float) -> float:
    """Least CVaR_beta of the portfolio loss under order-2 dominance, by LP.

    Rockafellar & Uryasev (2000): minimize q + sum_j p_j u_j / (1 - beta)
    with u_j >= -x.xi_j - q and u_j >= 0.  Order-2 dominance is imposed
    by shortfall variables s_ij >= t_i - x.xi_j, s_ij >= 0 and
    sum_j p_j s_ij <= E[(t_i - B)_+] at the benchmark atoms t_i, which
    suffice at order 2 (Dentcheva & Ruszczynski, SIAM J. Optim. 2003).
    Solved by HiGHS; skips the calling test when scipy is missing.
    """
    import pytest

    linprog = pytest.importorskip("scipy.optimize").linprog
    d, n = returns.shape
    ts = np.unique(bench_out)
    T = ts.size
    nv = d + 1 + n + T * n                 # x, q, u, s (row-major by threshold)
    iq, iu, i_s = d, d + 1, d + 1 + n
    c = np.zeros(nv)
    c[iq] = 1.0
    c[iu:i_s] = scen_probs / (1.0 - beta)
    rows, rhs = [], []
    for j in range(n):                     # -x.xi_j - q - u_j <= 0
        row = np.zeros(nv)
        row[:d] = -returns[:, j]
        row[iq] = -1.0
        row[iu + j] = -1.0
        rows.append(row)
        rhs.append(0.0)
    for i, t in enumerate(ts):
        for j in range(n):                 # t - x.xi_j - s_ij <= 0
            row = np.zeros(nv)
            row[:d] = -returns[:, j]
            row[i_s + i * n + j] = -1.0
            rows.append(row)
            rhs.append(-t)
        row = np.zeros(nv)                 # sum_j p_j s_ij <= E[(t - B)_+]
        row[i_s + i * n : i_s + (i + 1) * n] = scen_probs
        rows.append(row)
        rhs.append(lpm_direct(bench_out, bench_pr, float(t), 1.0))
    a_eq = np.zeros((1, nv))
    a_eq[0, :d] = 1.0
    bounds = [(0.0, None)] * d + [(None, None)] + [(0.0, None)] * (n + T * n)
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), A_eq=a_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)
