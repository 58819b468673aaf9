"""Independent brute-force oracles used to freeze expected test values.

Everything here is computed by direct summation, dense grids, or
sorting, deliberately avoiding the library's own evaluation paths.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
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


def gap_exact(y_out, y_pr, x_out, x_pr, p: float, t: float) -> Fraction:
    """E[(t - Y)_+^k] - E[(t - X)_+^k] for integer k = p - 1, in exact rational arithmetic."""
    k = int(p - 1.0)
    assert k == p - 1.0, "integer orders only"
    t = Fraction(float(t))

    def lpm(outcomes, probabilities):
        return sum(Fraction(float(pr)) * (t - Fraction(float(z))) ** k
                   for z, pr in zip(outcomes, probabilities) if Fraction(float(z)) < t)

    return lpm(y_out, y_pr) - lpm(x_out, x_pr)


def tail_gap_max(y_out, y_pr, x_out, x_pr, p: float, spans=(10.0, 1e4), per_decade: int = 8) -> float:
    """Largest gap at thresholds from spans[0] to spans[1] support widths past the last atom.

    With u = t - hi and w = hi - Z in [0, span], E[(u + w)^k] is the
    binomial series sum_j C(k, j) u^(k - j) E[w^j], summed to 40 terms in
    60-digit decimals with each variable's probabilities normalised to
    sum to 1; the first term left out is below 10^-40 of the moments.
    """
    z = [float(v) for v in np.concatenate([y_out, x_out])]
    lo, hi = min(z), max(z)
    span = hi - lo if hi > lo else max(1.0, abs(hi))
    widths = np.geomspace(spans[0], spans[1], int(round(math.log10(spans[1] / spans[0]) * per_decade)) + 1)
    with localcontext() as ctx:
        ctx.prec = 60
        k = Decimal(p - 1.0)

        def moments(outcomes, probabilities):
            w = [Decimal(hi) - Decimal(float(v)) for v in outcomes]
            terms = [Decimal(float(v)) for v in probabilities]
            total = sum(terms)
            out = []
            for _ in range(40):
                out.append(sum(terms) / total)
                terms = [a * b for a, b in zip(terms, w)]
            return out

        my, mx = moments(y_out, y_pr), moments(x_out, x_pr)
        coef, binom = [], Decimal(1)
        for j in range(40):
            coef.append(binom * (my[j] - mx[j]))
            binom = binom * (k - j) / (j + 1)
        gaps = []
        for width in widths:
            u = Decimal(float(width * span))
            gaps.append(u**k * sum(c / u**j for j, c in enumerate(coef)))
    return float(max(gaps))


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


def risk_direct(losses, probabilities, beta: float, r: float) -> float:
    """min over q of phi_direct, by golden-section search.

    phi is convex in q, and for beta > 0 its minimizer lies in
    [min L - 10 span - 1, max L], which the search shrinks to below 1e-12.
    """
    lo, hi = float(np.min(losses)), float(np.max(losses))
    a, b = lo - 10.0 * (hi - lo) - 1.0, hi
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def f(q):
        return phi_direct(losses, probabilities, beta, r, q)

    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-12 * max(1.0, abs(a), abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return min(fc, fd, f(hi))


def min_risk_grid_search(returns: np.ndarray, scen_probs: np.ndarray,
                         bench_out: np.ndarray, bench_pr: np.ndarray, beta: float, r: float,
                         tol: float = 1e-8, extra_candidates: np.ndarray | None = None):
    """Order-2 min-risk search over the 2-asset simplex; losses are negated returns.

    The feasible set is an interval of w1 and the risk is convex in the
    weights, so a 1e-3 grid followed by a 1e-5 grid around its best
    feasible point finds the optimum to about 1e-5 in w1.  Feasibility
    comes from ``sd2_feasible_mask``, the risk from ``risk_direct``.
    """
    assert returns.shape[0] == 2

    def best_of(w1):
        W = np.column_stack([w1, 1.0 - w1])
        if extra_candidates is not None:
            W = np.vstack([W, np.atleast_2d(extra_candidates)])
        ok = sd2_feasible_mask(W, returns, scen_probs, bench_out, bench_pr, tol)
        risks = [risk_direct(-(w @ returns), scen_probs, beta, r) for w in W[ok]]
        if not risks:
            return None
        i = int(np.argmin(risks))
        return risks[i], W[ok][i]

    coarse = best_of(np.linspace(0.0, 1.0, 1001))
    if coarse is None:
        return None
    w1 = coarse[1][0]
    fine = best_of(np.clip(np.linspace(w1 - 1e-3, w1 + 1e-3, 201), 0.0, 1.0))
    return min(coarse, fine, key=lambda item: item[0])


def _order2_lp(c: np.ndarray, rows: list, rhs: list, n_free: int, returns: np.ndarray,
               scen_probs: np.ndarray, bench_out: np.ndarray, bench_pr: np.ndarray,
               dense: bool = False):
    """HiGHS's result for min c.v over v = (x, free variables, s) with order-2 dominance.

    x (the first d entries) is on the simplex; the n_free variables after
    it carry the caller's bounds in rows/rhs (they are left unbounded, the
    caller's rows and c decide their sign).  Order-2 dominance is imposed
    by shortfall variables s_ij >= t_i - x.xi_j, s_ij >= 0 and
    sum_j p_j s_ij <= E[(t_i - B)_+] at the benchmark atoms t_i, which
    suffice at order 2 (Dentcheva & Ruszczynski, SIAM J. Optim. 2003).
    The constraint matrix is sparse, built block by block; dense=True
    builds it row by row as a dense array instead, which needs T n (d +
    n_free + T n) floats and serves only to check the sparse build on
    small instances.  Skips the calling test when scipy is missing.
    """
    import pytest

    linprog = pytest.importorskip("scipy.optimize").linprog
    sp = pytest.importorskip("scipy.sparse")
    d, n = returns.shape
    ts = np.unique(bench_out)
    T, i_s = ts.size, d + n_free
    nv = i_s + T * n                       # s is row-major by threshold
    c = np.concatenate([c, np.zeros(nv - c.size)])
    bench = [lpm_direct(bench_out, bench_pr, float(t), 1.0) for t in ts]
    b_ub = np.concatenate([rhs, np.repeat(-ts, n), bench])
    if dense:
        rows = [np.concatenate([row, np.zeros(nv - row.size)]) for row in rows]
        for i in range(T):
            for j in range(n):             # t - x.xi_j - s_ij <= 0
                row = np.zeros(nv)
                row[:d] = -returns[:, j]
                row[i_s + i * n + j] = -1.0
                rows.append(row)
        for i in range(T):
            row = np.zeros(nv)             # sum_j p_j s_ij <= E[(t - B)_+]
            row[i_s + i * n : i_s + (i + 1) * n] = scen_probs
            rows.append(row)
        a_ub = np.array(rows)
    else:
        caller = sp.csr_matrix(np.reshape(rows, (len(rows), i_s)))
        a_ub = sp.vstack([
            sp.hstack([caller, sp.csr_matrix((len(rows), T * n))]),
            sp.hstack([sp.csr_matrix(np.tile(-returns.T, (T, 1))), sp.csr_matrix((T * n, n_free)),
                       -sp.identity(T * n)]),
            sp.hstack([sp.csr_matrix((T, i_s)), sp.kron(sp.identity(T), scen_probs[None, :])]),
        ], format="csr")
    a_eq = np.zeros((1, nv))
    a_eq[0, :d] = 1.0
    bounds = [(0.0, None)] * d + [(None, None)] * n_free + [(0.0, None)] * (nv - i_s)
    return linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs")


def order2_feasible_lp(returns: np.ndarray, scen_probs: np.ndarray, bench_out: np.ndarray,
                       bench_pr: np.ndarray) -> bool:
    """Whether some portfolio dominates the benchmark at order 2, by HiGHS's status of the LP.

    HiGHS reports status 0 for a feasible LP and 2 for an infeasible one;
    any other status fails the calling test.
    """
    res = _order2_lp(np.zeros(returns.shape[0]), [], [], 0, returns, scen_probs, bench_out,
                     bench_pr)
    assert res.status in (0, 2), res.message
    return res.status == 0


def max_return_order2_lp(returns: np.ndarray, scen_probs: np.ndarray, bench_out: np.ndarray,
                         bench_pr: np.ndarray, dense: bool = False) -> float:
    """Largest expected return under order-2 dominance, by LP (HiGHS)."""
    res = _order2_lp(-(returns @ scen_probs), [], [], 0, returns, scen_probs, bench_out, bench_pr,
                     dense)
    assert res.status == 0, res.message
    return -float(res.fun)


def cvar_order2_lp(returns: np.ndarray, scen_probs: np.ndarray, bench_out: np.ndarray,
                   bench_pr: np.ndarray, beta: float, dense: bool = False) -> float:
    """Least CVaR_beta of the portfolio loss under order-2 dominance, by LP (HiGHS).

    Rockafellar & Uryasev (2000): minimize q + sum_j p_j u_j / (1 - beta)
    with u_j >= -x.xi_j - q and u_j >= 0, over v = (x, q, u, s).
    """
    d, n = returns.shape
    c = np.concatenate([np.zeros(d), [1.0], scen_probs / (1.0 - beta)])
    rows, rhs = [], []
    for j in range(n):                     # -x.xi_j - q - u_j <= 0
        row = np.zeros(d + 1 + n)
        row[:d] = -returns[:, j]
        row[d] = -1.0
        row[d + 1 + j] = -1.0
        rows.append(row)
        rhs.append(0.0)
        row = np.zeros(d + 1 + n)          # -u_j <= 0
        row[d + 1 + j] = -1.0
        rows.append(row)
        rhs.append(0.0)
    res = _order2_lp(c, rows, rhs, 1 + n, returns, scen_probs, bench_out, bench_pr, dense)
    assert res.status == 0, res.message
    return float(res.fun)
