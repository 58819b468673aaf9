"""Independent oracles for the benchmark's output checks.

Nothing here imports stochdom.  Each value is computed another way than
the program computes it: order-2 gaps from sorted atoms and cumulative
sums, other orders by chunked dense grids and plain per-atom sums, the
gap far beyond the last atom from its series in the shifted moments in
60-digit decimals, and order-2 optima as HiGHS linear programs.

The LP formulations follow Dentcheva & Ruszczynski (SIAM J. Optim.
2003): for a discrete benchmark B, order-2 dominance of the portfolio
return R holds iff E[(t - R)_+] <= E[(t - B)_+] at every atom t of B,
with one shortfall variable per (atom, scenario).  CVaR is written as
in Rockafellar & Uryasev (2000).
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

# scipy is imported inside the functions that need it: the benchmark
# reads its peak resident set before the oracles run, and importing
# scipy would raise it for every workload

# thresholds per dense-grid chunk; bounds the grid's memory to
# GRID_CHUNK x atoms doubles
GRID_CHUNK = 256
# dense grid: points, best points refined locally, refinement rounds
GRID_POINTS, GRID_CANDIDATES, GRID_ROUNDS = 4001, 8, 3
# the dense grids end this many support widths beyond the last atom,
# where verify's tail probes end
GRID_SPANS = 10.0
# the tail check ends this many support widths beyond the last atom.
# Further out, the rounding of the inputs' moments (about 1e-17 in the
# mean of a mean-preserving spread built in floats) decides the sign.
TAIL_SPANS = 1e4
# tail thresholds per decade of distance, and decimal digits carried
TAIL_POINTS_PER_DECADE = 8
TAIL_DIGITS = 60
# series terms: the first left out is below (1 / GRID_SPANS)^TAIL_TERMS
# of the shortfall moments
TAIL_TERMS = 40


def lpm_sorted(z: np.ndarray, p: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """E[(t - Z)_+] at every t in ts, from cumulative sums over sorted atoms."""
    order = np.argsort(z, kind="stable")
    z, p = z[order], p[order]
    mass = np.concatenate(([0.0], np.cumsum(p)))
    first = np.concatenate(([0.0], np.cumsum(p * z)))
    below = np.searchsorted(z, ts, side="left")
    return ts * mass[below] - first[below]


def order2_supremum(yz, yp, xz, xp) -> tuple[float, float]:
    """sup over t of E[(t-Y)_+] - E[(t-X)_+], and a threshold attaining it.

    The gap is piecewise linear with kinks at the atoms and is constant,
    equal to mean(X) - mean(Y), beyond the last atom; so the supremum
    is the larger of the gap at the atoms and that mean condition.
    """
    ts = np.unique(np.concatenate([yz, xz]))
    gaps = lpm_sorted(yz, yp, ts) - lpm_sorted(xz, xp, ts)
    i = int(np.argmax(gaps))
    mean_condition = float(np.dot(xp, xz) - np.dot(yp, yz))
    if mean_condition > gaps[i]:
        return mean_condition, float(ts[-1])
    return float(gaps[i]), float(ts[i])


def gap_direct(yz, yp, xz, xp, order: float, t: float) -> float:
    """Gap E[(t-Y)_+^k] - E[(t-X)_+^k], k = order - 1, by per-atom summation."""
    k = order - 1.0

    def lpm(z, p):
        return math.fsum(float(pi) * (t - float(zi)) ** k for zi, pi in zip(z, p) if zi < t)

    return lpm(yz, yp) - lpm(xz, xp)


def _lpm_chunked(z, p, ts, k):
    out = np.empty(ts.size)
    for i in range(0, ts.size, GRID_CHUNK):
        d = ts[i:i + GRID_CHUNK, None] - z[None, :]
        np.maximum(d, 0.0, out=d)
        out[i:i + GRID_CHUNK] = (d**k) @ p
    return out


def gap_grid(yz, yp, xz, xp, order: float, ts: np.ndarray) -> np.ndarray:
    k = order - 1.0
    return _lpm_chunked(yz, yp, ts, k) - _lpm_chunked(xz, xp, ts, k)


def support(yz, xz) -> tuple[float, float, float]:
    """First and last atom of the two variables, and the support width."""
    atoms = np.concatenate([yz, xz])
    lo, hi = float(atoms.min()), float(atoms.max())
    return lo, hi, max(hi - lo, 1e-12)


def grid_gap_max(yz, yp, xz, xp, order: float) -> float:
    """Gap maximum on a dense grid over the support plus GRID_SPANS support widths.

    The best grid points are refined by re-gridding the two cells around
    each of them, GRID_ROUNDS times, which removes most of the grid's
    spacing bias at an interior maximum.
    """
    lo, hi, span = support(yz, xz)
    hi += GRID_SPANS * span
    ts = np.linspace(lo, hi, GRID_POINTS)
    g = gap_grid(yz, yp, xz, xp, order, ts)
    best = float(g.max())
    step = (hi - lo) / (GRID_POINTS - 1)
    for i in np.argsort(g)[::-1][:GRID_CANDIDATES]:
        centre, width = float(ts[i]), step
        for _ in range(GRID_ROUNDS):
            fine = np.linspace(max(lo, centre - width), min(hi, centre + width), 65)
            gf = gap_grid(yz, yp, xz, xp, order, fine)
            j = int(np.argmax(gf))
            centre, width = float(fine[j]), 2.0 * width / 64
            best = max(best, float(gf[j]))
    return best


def _shifted_moments(z, p, hi: float) -> list[Decimal]:
    """E[(hi - Z)^j], j < TAIL_TERMS, in decimals, with the probabilities normalised to sum to 1."""
    w = [Decimal(hi) - Decimal(float(v)) for v in z]
    powers = [Decimal(float(v)) for v in p]
    total = sum(powers)
    out = []
    for _ in range(TAIL_TERMS):
        out.append(sum(powers) / total)
        powers = [a * b for a, b in zip(powers, w)]
    return out


def tail_gap_max(yz, yp, xz, xp, order: float) -> float:
    """Largest gap at thresholds from GRID_SPANS to TAIL_SPANS support widths beyond the last atom.

    Floats cancel out there: both shortfall moments grow like t^(order-1)
    while their difference stays small.  With u = t - hi and
    w = hi - Z in [0, span], E[(u + w)^k] = sum_j C(k, j) u^(k-j) E[w^j],
    a polynomial for integer k and a series whose terms shrink like
    (span / u)^j otherwise.  The moments and the series are computed in
    TAIL_DIGITS-digit decimals, at TAIL_POINTS_PER_DECADE thresholds per
    decade.
    """
    _, hi, span = support(yz, xz)
    decades = math.log10(TAIL_SPANS / GRID_SPANS)
    widths = GRID_SPANS * np.logspace(0.0, decades, int(round(decades * TAIL_POINTS_PER_DECADE)) + 1)
    with localcontext() as ctx:
        ctx.prec = TAIL_DIGITS
        k = Decimal(float(order) - 1.0)
        my, mx = _shifted_moments(yz, yp, hi), _shifted_moments(xz, xp, hi)
        coef, binom = [], Decimal(1)         # C(k, j) (E[w_Y^j] - E[w_X^j])
        for j in range(TAIL_TERMS):
            coef.append(binom * (my[j] - mx[j]))
            binom = binom * (k - j) / (j + 1)
        gaps = []
        for width in widths:
            u = Decimal(float(width * span))
            gaps.append(u**k * sum(c / u**j for j, c in enumerate(coef)))
    return float(max(gaps))


def dominance_violation(rz, rp, bz, bp, order: float) -> float:
    """Largest dominance violation of R over B at the given order (<= 0 means dominance).

    Order 2 is exact.  Other orders take the largest of a dense-grid gap
    maximum over the support plus GRID_SPANS support widths, the tail
    gap maximum out to TAIL_SPANS support widths, and the mean
    condition mean(B) - mean(R), which every order >= 2 requires.
    """
    if order == 2.0:
        return order2_supremum(rz, rp, bz, bp)[0]
    return max(grid_gap_max(rz, rp, bz, bp, order), tail_gap_max(rz, rp, bz, bp, order),
               float(np.dot(bp, bz) - np.dot(rp, rz)))


def _dominance_rows(returns, probs, bench_z, bench_p, n_lead: int):
    """Order-2 dominance rows over [lead vars, x (d), s (m*n)], as A_ub, b_ub.

    Rows 1..m*n:  t_j - xi_k.x - s_jk <= 0
    Rows m*n+1..: sum_k p_k s_jk <= E[(t_j - B)_+]
    """
    from scipy import sparse

    d, n = returns.shape
    ts = np.unique(bench_z)
    m = ts.size
    cap = lpm_sorted(bench_z, bench_p, ts)
    n_vars = n_lead + d + m * n
    # shortfall rows: -xi_k.x - s_jk <= -t_j
    rows = np.repeat(np.arange(m * n), d)
    cols = n_lead + np.tile(np.arange(d), m * n)
    vals = -np.tile(returns.T, (m, 1)).ravel()
    shortfall_x = sparse.csr_matrix((vals, (rows, cols)), shape=(m * n, n_vars))
    shortfall_s = sparse.csr_matrix(
        (-np.ones(m * n), (np.arange(m * n), n_lead + d + np.arange(m * n))), shape=(m * n, n_vars))
    cap_rows = sparse.csr_matrix(
        (np.tile(probs, m), (np.repeat(np.arange(m), n), n_lead + d + np.arange(m * n))),
        shape=(m, n_vars))
    A = sparse.vstack([shortfall_x + shortfall_s, cap_rows], format="csr")
    b = np.concatenate([-np.repeat(ts, n), cap])
    return A, b, n_vars


def _solve(c, A_ub, b_ub, n_vars, d, n_lead, bounds):
    from scipy import sparse
    from scipy.optimize import linprog

    A_eq = sparse.csr_matrix((np.ones(d), (np.zeros(d, int), n_lead + np.arange(d))), shape=(1, n_vars))
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0], bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return res


def max_return_lp(returns, probs, bench_z, bench_p) -> float:
    """Maximum expected return under order-2 dominance over the benchmark."""
    d, n = returns.shape
    A, b, n_vars = _dominance_rows(returns, probs, bench_z, bench_p, 0)
    c = np.zeros(n_vars)
    c[:d] = -(returns @ probs)
    res = _solve(c, A, b, n_vars, d, 0, [(0, None)] * n_vars)
    return -float(res.fun)


def cvar_lp(returns, probs, beta: float, bench_z, bench_p) -> float:
    """Minimum CVaR_beta of the loss -R under order-2 dominance over the benchmark.

    Variables [q, u (n), x (d), s]: minimise q + sum_k p_k u_k / (1 - beta)
    with u_k >= -xi_k.x - q and u >= 0.
    """
    from scipy import sparse

    d, n = returns.shape
    lead = 1 + n
    A_dom, b_dom, n_vars = _dominance_rows(returns, probs, bench_z, bench_p, lead)
    # -xi_k.x - q - u_k <= 0
    tail = sparse.hstack([
        -np.ones((n, 1)), -sparse.identity(n), sparse.csr_matrix(-returns.T),
        sparse.csr_matrix((n, n_vars - lead - d)),
    ])
    A = sparse.vstack([tail, A_dom], format="csr")
    b = np.concatenate([np.zeros(n), b_dom])
    c = np.zeros(n_vars)
    c[0] = 1.0
    c[1:lead] = probs / (1.0 - beta)
    bounds = [(None, None)] + [(0, None)] * (n_vars - 1)
    return float(_solve(c, A, b, n_vars, d, lead, bounds).fun)


def cvar_sorted(losses, probs, beta: float) -> float:
    """CVaR_beta as the mean of the worst (1 - beta) probability mass of losses."""
    order = np.argsort(losses)[::-1]
    left = 1.0 - beta
    total = 0.0
    for i in order:
        take = min(float(probs[i]), left)
        total += take * float(losses[i])
        left -= take
        if left <= 0.0:
            break
    return total / (1.0 - beta)


def higher_order_risk_1d(losses, probs, beta: float, r: float) -> float:
    """min over q of q + (E[(L - q)_+^r])^(1/r) / (1 - beta), by bounded Brent search."""
    from scipy.optimize import minimize_scalar

    lo, hi = float(losses.min()), float(losses.max())

    def phi(q):
        u = np.maximum(losses - q, 0.0)
        return q + float(np.dot(probs, u**r)) ** (1.0 / r) / (1.0 - beta)

    res = minimize_scalar(phi, bounds=(lo - 10.0 * (hi - lo), hi), method="bounded",
                          options={"xatol": 1e-12, "maxiter": 2000})
    return float(min(res.fun, phi(hi)))
