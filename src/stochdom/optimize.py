"""Dominance-constrained portfolio optimizers.

Both optimizers share one deterministic pipeline.  Every solve starts from
equal weights; phase 1 moves that point strictly inside a finite set of
threshold cuts (plus the mean condition), a damped Newton method on a
log-barrier reformulation solves the problem over those cuts, and a
constraint-generation loop adds the worst violated threshold from a full
verification pass until dominance is certified.

The min-risk objective is lifted over (x, q, u) with tail-excess rows
u_j >= L_j(x) - q and u_j >= 0, and minimizes q + ||u||_{r,p} / (1 - beta):
linear at r = 1 (Rockafellar & Uryasev, 2000) and a p-weighted r-norm for
r > 1 (Krokhmal, Quant. Finance 2007).  One smooth convex problem thus
serves every r >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dominance import _Shortfall, verify
from .risk import higher_order_risk, minimize_phi
from .types import (
    DimensionError,
    DiscreteRandomVariable,
    DomainError,
    PortfolioWeights,
    RiskSpec,
    ScenarioSet,
    mean,
    order_value,
    portfolio_return_variable,
)

# decreasing barrier sequence, factor 10
BARRIER_MUS = tuple(10.0**-k for k in range(2, 11))
_INTERIOR_MARGIN = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs of the barrier Newton solve and the constraint-generation loop."""

    newton_max_iter: int = 100
    newton_tol: float = 1e-10
    constraint_tol: float = 1e-8
    max_generated_constraints: int = 50

    def __post_init__(self) -> None:
        if self.newton_max_iter < 1 or self.max_generated_constraints < 1:
            raise DomainError("newton_max_iter and max_generated_constraints must be >= 1")
        if self.newton_tol <= 0 or self.constraint_tol <= 0:
            raise DomainError("tolerances must be > 0")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a dominance-constrained portfolio optimization."""

    weights: PortfolioWeights | None
    active_thresholds: tuple[float, ...]
    q_star: float | None
    objective_value: float | None
    expected_return: float | None
    benchmark_return: float
    risk_value: float | None
    simplex_residual: float | None
    dominance_residual: float | None
    converged: bool
    iterations: dict
    infeasible: bool = False
    message: str | None = None


def _project(u: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sorted threshold rule)."""
    s = np.sort(u)[::-1]
    css = np.cumsum(s) - 1.0
    idx = np.arange(1, u.size + 1)
    rho = idx[s - css / idx > 0.0][-1]
    theta = css[rho - 1] / rho
    return np.maximum(u - theta, 0.0)


def project_to_simplex(v) -> PortfolioWeights:
    """Project an arbitrary real vector onto the weight simplex."""
    u = np.asarray(v, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise DimensionError("expected a non-empty 1-d vector")
    if not np.all(np.isfinite(u)):
        raise DomainError("cannot project a non-finite vector")
    return PortfolioWeights(_project(u))


@dataclass(frozen=True)
class SwarmConfig:
    """Settings of the standalone particle swarm; no solve path uses it."""

    swarm_size: int = 64
    iterations: int = 200
    inertia: float = 0.7
    cognitive: float = 1.5
    social: float = 1.5
    rng_seed: int = 42

    def __post_init__(self) -> None:
        if self.swarm_size < 1:
            raise DomainError("swarm_size must be >= 1")
        if self.iterations < 0:
            raise DomainError("iterations must be >= 0")
        if self.rng_seed < 0:
            raise DomainError("rng_seed must be a nonnegative integer")


def pso_search(objective, penalty, dim: int, cfg: SwarmConfig | None = None) -> PortfolioWeights:
    """Particle swarm over the simplex with penalized constraint violations.

    Fitness is objective + mu * penalty; mu starts at 1e4 and doubles
    whenever the incumbent stays infeasible for 10 consecutive
    iterations.  Deterministic for a fixed cfg.rng_seed.
    """
    cfg = cfg or SwarmConfig()
    if dim < 1:
        raise DimensionError("dimension must be >= 1")
    rng = np.random.default_rng(cfg.rng_seed)
    S = cfg.swarm_size
    pos = np.empty((S, dim))
    pos[0] = 1.0 / dim
    for i in range(1, S):
        pos[i] = rng.dirichlet(np.ones(dim))
    pos = np.vstack([_project(row) for row in pos])
    vel = np.zeros_like(pos)

    def _eval(row: np.ndarray) -> tuple[float, float]:
        w = PortfolioWeights(row)
        return float(objective(w)), float(penalty(w))

    evals = [_eval(row) for row in pos]
    pbest = pos.copy()
    pbest_obj = np.array([e[0] for e in evals])
    pbest_pen = np.array([e[1] for e in evals])
    mu = 1e4
    gi = int(np.argmin(pbest_obj + mu * pbest_pen))
    gbest = pbest[gi].copy()
    gobj, gpen = float(pbest_obj[gi]), float(pbest_pen[gi])
    infeasible_run = 0

    for _ in range(cfg.iterations):
        r1 = rng.random((S, dim))
        r2 = rng.random((S, dim))
        vel = (
            cfg.inertia * vel
            + cfg.cognitive * r1 * (pbest - pos)
            + cfg.social * r2 * (gbest[None, :] - pos)
        )
        pos = np.vstack([_project(row) for row in pos + vel])
        for i in range(S):
            o, c = _eval(pos[i])
            if o + mu * c < pbest_obj[i] + mu * pbest_pen[i]:
                pbest[i] = pos[i]
                pbest_obj[i] = o
                pbest_pen[i] = c
        gi = int(np.argmin(pbest_obj + mu * pbest_pen))
        if pbest_obj[gi] + mu * pbest_pen[gi] < gobj + mu * gpen:
            gbest = pbest[gi].copy()
            gobj, gpen = float(pbest_obj[gi]), float(pbest_pen[gi])
        if gpen > 0.0:
            infeasible_run += 1
            if infeasible_run >= 10:
                mu *= 2.0
                infeasible_run = 0
        else:
            infeasible_run = 0
    return PortfolioWeights(gbest)


class _DominanceCuts:
    """Finite family of dominance constraints g_t(x) <= 0 over thresholds.

    Each smooth cut is scaled by its benchmark moment,
    E[(t - x.xi)_+^k] / E[(t - benchmark)_+^k] - 1 <= 0, so that cuts
    whose moments differ by orders of magnitude share one interior margin.

    Thresholds at which the benchmark shortfall moment vanishes admit no
    strict sublevel interior (the portfolio moment is nonnegative), so
    those collapse into per-scenario linear floor constraints
    t - x.xi_j <= 0, which do have an interior whenever one exists.  The
    last row is the mean condition E[benchmark] - E[x.xi] <= 0, which
    dominance at any order p >= 2 requires.
    """

    def __init__(self, scenarios: ScenarioSet, benchmark: DiscreteRandomVariable, order, thresholds):
        self.xi = scenarios.returns
        self.p = scenarios.scenario_probabilities
        self.mr = scenarios.mean_returns()
        self.bench_mean = mean(benchmark)
        self.k = order_value(order) - 1.0
        ts = np.unique(np.asarray(thresholds, dtype=float))
        if ts.size == 0:
            raise DomainError("threshold set must be nonempty")
        bench = _Shortfall(self.k, benchmark)(ts)
        smooth = bench > 0.0
        self.ts = ts[smooth]
        self.bench = bench[smooth]
        self.floor_t = float(ts[~smooth].max()) if bool((~smooth).any()) else None
        self.d, self.n = self.xi.shape

    @property
    def m(self) -> int:
        return self.ts.size + (self.n if self.floor_t is not None else 0) + 1

    def values(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.xi
        parts = []
        if self.ts.size:
            diff = np.maximum(self.ts[:, None] - out[None, :], 0.0)
            port = (diff @ self.p) if self.k == 1.0 else (diff**self.k) @ self.p
            parts.append(port / self.bench - 1.0)
        if self.floor_t is not None:
            parts.append(self.floor_t - out)
        parts.append([self.bench_mean - float(self.mr @ x)])
        return np.concatenate(parts)

    def jac(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.xi
        parts = []
        if self.ts.size:
            raw = self.ts[:, None] - out[None, :]
            active = raw > 0.0
            if self.k == 1.0:
                w = np.where(active, 1.0, 0.0)
            else:
                w = np.where(active, self.k * np.maximum(raw, 0.0) ** (self.k - 1.0), 0.0)
            parts.append(-((w * self.p[None, :]) @ self.xi.T) / self.bench[:, None])
        if self.floor_t is not None:
            parts.append(-self.xi.T)
        parts.append(-self.mr[None, :])
        return np.vstack(parts)

    def hess(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Multiplier-weighted sum of cut Hessians (floor and mean rows are linear)."""
        if not self.ts.size or self.k <= 1.0:
            return np.zeros((self.d, self.d))
        lam_s = lam[: self.ts.size] / self.bench
        raw = self.ts[:, None] - (x @ self.xi)[None, :]
        active = raw > 0.0
        expo = self.k - 2.0
        if expo < 0.0:
            # curvature of (.)^k is integrably singular at the kink for
            # k < 2; clamping keeps the Hessian finite, damping does the rest
            base = np.where(active, np.maximum(raw, 1e-10), 1.0)
        else:
            base = np.where(active, raw, 0.0)
        pw = np.where(active, base**expo, 0.0)
        coef = self.k * (self.k - 1.0) * ((lam_s[:, None] * pw) * self.p[None, :]).sum(axis=0)
        return (self.xi * coef[None, :]) @ self.xi.T


class _LinearProblem:
    """Barrier problem: minimize cost.x over the cut polytope.

    Serves max-return (cost = -E[returns]) and beta = 0 min-risk, whose
    measure is the expected loss for every r.
    """

    def __init__(self, cost: np.ndarray, cuts: _DominanceCuts):
        self.cost = cost
        self.cuts = cuts
        self.d = cost.size
        self.n_vars = self.d
        self.m = cuts.m

    def lift(self, x, q=None, mu=None):
        return np.array(x, dtype=float)

    def obj_value(self, z):
        return float(self.cost @ z)

    def obj_grad(self, z):
        return self.cost.copy()

    def obj_hess(self, z):
        return np.zeros((self.d, self.d))

    def con_values(self, z):
        return self.cuts.values(z)

    def con_jac(self, z):
        return self.cuts.jac(z)

    def con_hess(self, z, lam):
        return self.cuts.hess(z, lam)


class _RiskProblem:
    """Lifted barrier problem over z = (x, q, u) for every r >= 1.

    Minimizes q + c * (sum_j p_j u_j^r)^(1/r), c = 1 / (1 - beta), subject
    to the cuts on x and the rows L_j(x) - q - u_j <= 0 and -u_j <= 0,
    where L_j(x) is the loss of scenario j.  At an optimum u = (L - q)_+,
    so the objective equals phi(q) of the risk measure.
    """

    def __init__(self, scenarios: ScenarioSet, spec: RiskSpec, cuts: _DominanceCuts):
        self.loss = spec.sign * scenarios.returns     # L(x) = x @ loss
        self.probs = scenarios.scenario_probabilities
        self.r = spec.r
        self.c = 1.0 / (1.0 - spec.beta)
        self.cuts = cuts
        self.d, self.n = scenarios.d, scenarios.n
        self.n_vars = self.d + 1 + self.n
        self.m = cuts.m + 2 * self.n

    def lift(self, x, q, mu=None):
        """The point (x, q, u): u = (L - q)_+ without mu; with mu, the u
        that is central for the barrier at fixed (x, q).

        Central means w_j(u_j) = mu / u_j + mu / (u_j - e_j) for each
        scenario, e = L(x) - q and w_j the objective's slope in u_j, taken
        at the scale of the tail (e)_+; it is found by bisection.
        """
        e = x @ self.loss - q
        if mu is None:
            return np.concatenate([x, [float(q)], np.maximum(e, 0.0)])
        ep = np.maximum(e, 0.0)
        s = float(self.probs @ ep**self.r)
        scale = s ** (1.0 / self.r - 1.0) if s > 0.0 else 1.0

        def excess(u):   # increasing in u above max(e, 0); its root is central
            return self.c * scale * self.probs * u**self.r * (u - e) - mu * (2.0 * u - e)

        lo, width = ep, np.ones_like(e)
        while (excess(lo + width) <= 0.0).any():
            width *= 2.0
        for _ in range(60):
            mid = lo + 0.5 * width
            up = excess(mid) <= 0.0
            lo = np.where(up, mid, lo)
            width *= 0.5
        return np.concatenate([x, [float(q)], lo + width])

    def _tail(self, z):
        """Clipped excess u_+, its weighted r-th moment s, and the scale s^(1/r - 1)."""
        up = np.maximum(z[self.d + 1 :], 0.0)
        s = float(self.probs @ up**self.r)
        # zero tail: the norm has no gradient there, use the zero subgradient
        return up, s, (s ** (1.0 / self.r - 1.0) if s > 0.0 else 0.0)

    def obj_value(self, z):
        if self.r == 1.0:
            return float(z[self.d] + self.c * (self.probs @ z[self.d + 1 :]))
        _, s, _ = self._tail(z)
        return float(z[self.d] + self.c * s ** (1.0 / self.r))

    def obj_grad(self, z):
        g = np.zeros(self.n_vars)
        g[self.d] = 1.0
        if self.r == 1.0:
            g[self.d + 1 :] = self.c * self.probs
        else:
            up, _, scale = self._tail(z)
            g[self.d + 1 :] = self.c * scale * self.probs * up ** (self.r - 1.0)
        return g

    def obj_hess(self, z):
        H = np.zeros((self.n_vars, self.n_vars))
        up, s, scale = self._tail(z)
        if self.r == 1.0 or s <= 0.0:
            return H
        r = self.r
        b = self.probs * up ** (r - 1.0)
        # u^(r-2) is singular at 0 for r < 2: excesses at 0 get no curvature
        # and tiny ones are clamped, which keeps the polish's KKT matrix
        # well conditioned where the row u_j >= 0 pins u_j anyway
        pos = up > 0.0
        curv = np.zeros(self.n)
        curv[pos] = self.probs[pos] * np.maximum(up[pos], 1e-10) ** (r - 2.0)
        H[self.d + 1 :, self.d + 1 :] = self.c * (r - 1.0) * (
            scale * np.diag(curv) - (scale / s) * np.outer(b, b)
        )
        return H

    def con_values(self, z):
        x, q, u = z[: self.d], z[self.d], z[self.d + 1 :]
        return np.concatenate([self.cuts.values(x), x @ self.loss - q - u, -u])

    def con_jac(self, z):
        Jc = self.cuts.jac(z[: self.d])
        d, n = self.d, self.n
        J = np.zeros((Jc.shape[0] + 2 * n, self.n_vars))
        J[: Jc.shape[0], :d] = Jc
        tail = slice(Jc.shape[0], Jc.shape[0] + n)
        J[tail, :d] = self.loss.T
        J[tail, d] = -1.0
        J[tail, d + 1 :] = -np.eye(n)
        J[Jc.shape[0] + n :, d + 1 :] = -np.eye(n)
        return J

    def con_hess(self, z, lam):
        H = np.zeros((self.n_vars, self.n_vars))
        H[: self.d, : self.d] = self.cuts.hess(z[: self.d], lam)
        return H


class _Phase1Problem:
    """Minimize the slack bound z over {g_t(x) <= z}, to find a strict interior point."""

    def __init__(self, cuts: _DominanceCuts):
        self.cuts = cuts
        self.d = cuts.d
        self.n_vars = self.d + 1

    def obj_value(self, z):
        return float(z[self.d])

    def obj_grad(self, z):
        g = np.zeros(self.n_vars)
        g[self.d] = 1.0
        return g

    def obj_hess(self, z):
        return np.zeros((self.n_vars, self.n_vars))

    def con_values(self, z):
        return self.cuts.values(z[: self.d]) - z[self.d]

    def con_jac(self, z):
        J = self.cuts.jac(z[: self.d])
        return np.hstack([J, -np.ones((J.shape[0], 1))])

    def con_hess(self, z, lam):
        H = np.zeros((self.n_vars, self.n_vars))
        H[: self.d, : self.d] = self.cuts.hess(z[: self.d], lam)
        return H


@dataclass(frozen=True, eq=False)
class _BarrierResult:
    z: np.ndarray
    converged: bool
    kkt_residual: float
    iterations: int
    stage_iterations: tuple[int, ...]
    lam: np.ndarray
    bound_multipliers: np.ndarray
    eq_multiplier: float
    barrier_mu: float
    note: str | None


def _solve_kkt(H: np.ndarray, a: np.ndarray, grad: np.ndarray):
    """Solve [[H, a], [a', 0]] [dz, nu] = [-grad, 0] with escalating diagonal shifts."""
    n = a.size
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = H
    K[:n, n] = a
    K[n, :n] = a
    rhs = np.zeros(n + 1)
    rhs[:n] = -grad
    delta = 0.0
    while True:
        Kd = K if delta == 0.0 else K + np.diag(np.concatenate([np.full(n, delta), [0.0]]))
        try:
            sol = np.linalg.solve(Kd, rhs)
        except np.linalg.LinAlgError:
            sol = None
        if sol is not None and np.all(np.isfinite(sol)):
            return sol[:n], True
        if delta == 0.0:
            delta = 1e-10
        else:
            delta *= 10.0
        if delta > 1e-2:
            return None, False


def _barrier_merit(prob, z, mu, g):
    return prob.obj_value(z) - mu * (float(np.log(-g).sum()) + float(np.log(z[: prob.d]).sum()))


def _active_rows(prob, g: np.ndarray) -> np.ndarray:
    """Rows the polish treats as equalities: slack below 1e-6, plus, for the
    lifted risk rows, the tighter of each scenario's two rows.

    At r > 1 the row u_j >= 0 of a scenario outside the tail carries a
    zero multiplier, so its barrier slack decays only like mu^(1/r).
    """
    act = g >= -1e-6
    if isinstance(prob, _RiskProblem):
        m, n = prob.cuts.m, prob.n
        tail, nonneg = g[m : m + n], g[m + n :]
        act[m : m + n] |= tail >= nonneg
        act[m + n :] |= nonneg > tail
    return np.flatnonzero(act)


def _polish_newton(prob, z0: np.ndarray, mu: float, act: np.ndarray, bnd: np.ndarray):
    """Undamped Newton on the KKT equations with rows act and bounds bnd held
    as equalities; returns the iterate of least residual, or None."""
    d, n = prob.d, prob.n_vars
    a = np.zeros(n)
    a[:d] = 1.0
    z = z0.copy()
    nA, nB = act.size, bnd.size
    lamA = mu / np.maximum(-prob.con_values(z)[act], 1e-300)
    sB = mu / np.maximum(z[:d][bnd], 1e-300)
    nu = 0.0
    best = None
    for _ in range(8):
        g = prob.con_values(z)
        J = prob.con_jac(z)
        lam_full = np.zeros(g.size)
        lam_full[act] = lamA
        grad = prob.obj_grad(z) + J.T @ lam_full + nu * a
        grad[bnd] -= sB
        F = np.concatenate([grad, g[act], z[:d][bnd], [float(z[:d].sum()) - 1.0]])
        norm = float(np.abs(F).max())
        if not np.isfinite(norm):
            break
        if best is None or norm < best[0]:
            best = (norm, z.copy(), lamA.copy(), sB.copy(), nu)
        if norm <= 1e-14:
            break
        K = np.zeros((n + nA + nB + 1, n + nA + nB + 1))
        K[:n, :n] = prob.obj_hess(z) + prob.con_hess(z, lam_full)
        K[:n, n : n + nA] = J[act].T
        K[n : n + nA, :n] = J[act]
        K[bnd, n + nA + np.arange(nB)] = -1.0
        K[n + nA + np.arange(nB), bnd] = 1.0
        K[:n, -1] = a
        K[-1, :n] = a
        if not np.all(np.isfinite(K)):
            break
        # degenerate active sets (dependent cut rows, more active cuts than
        # variables) still admit consistent KKT systems; the minimum-norm
        # least-squares step keeps the multiplier movement bounded there
        step = np.linalg.lstsq(K, -F, rcond=1e-12)[0]
        z = z + step[:n]
        lamA = lamA + step[n : n + nA]
        sB = sB + step[n + nA : n + nA + nB]
        nu = nu + float(step[-1])
    return best


def _polish_active_set(prob, z0: np.ndarray, mu: float):
    """Crossover: Newton on the active-set KKT equations.

    The primal barrier plateaus around 1e-9 stationarity because its
    Hessian carries mu/g^2 terms; once the active set is identified the
    equality-form system is well scaled and Newton reaches machine
    precision.  Rows or bounds that come out with negative multipliers
    were misidentified and are released; rows or weights the polish
    drives past their bound are added; then the polish is repeated.
    Returns None when identification or the solve fails.
    """
    d = prob.d
    act = _active_rows(prob, prob.con_values(z0))
    bnd = np.flatnonzero(z0[:d] <= 1e-6)
    for _ in range(3):
        best = _polish_newton(prob, z0, mu, act, bnd)
        if best is None:
            return None
        norm, z, lamA, sB, nu = best
        g = prob.con_values(z)
        inact = np.setdiff1d(np.arange(g.size), act)
        free = np.setdiff1d(np.arange(d), bnd)
        hit_a, hit_b = inact[g[inact] > 1e-12], free[z[:d][free] < -1e-12]
        wrong_a, wrong_b = lamA < -1e-9, sB < -1e-9
        if not (wrong_a.any() or wrong_b.any() or hit_a.size or hit_b.size):
            break
        act = np.union1d(act[~wrong_a], hit_a)
        bnd = np.union1d(bnd[~wrong_b], hit_b)
    else:
        return None
    if float(np.abs(g[act]).max(initial=0.0)) > 1e-10:
        return None
    lam_full = np.zeros(g.size)
    lam_full[act] = np.maximum(lamA, 0.0)
    bound_full = np.zeros(d)
    bound_full[bnd] = np.maximum(sB, 0.0)
    z = z.copy()
    z[:d] = np.maximum(z[:d], 0.0)
    return norm, z, lam_full, bound_full, nu


def _barrier_gradient(prob, z, mu, g):
    """Jacobian, barrier gradient and its simplex-projected max-norm at a strictly interior z."""
    d = prob.d
    J = prob.con_jac(z)
    grad = prob.obj_grad(z) + J.T @ (mu / -g)
    grad[:d] -= mu / z[:d]
    nu = -float(grad[:d].sum()) / d
    return J, grad, float(max(np.abs(grad[:d] + nu).max(), np.abs(grad[d:]).max(initial=0.0)))


def _newton_direction(prob, z, mu, g, J, grad):
    """Newton step on the barrier problem with parameter mu, kept on the simplex."""
    d = prob.d
    a = np.zeros(prob.n_vars)
    a[:d] = 1.0
    H = prob.obj_hess(z) + (J.T * (mu / g**2)) @ J + prob.con_hess(z, mu / (-g))
    H[np.arange(d), np.arange(d)] += mu / z[:d] ** 2
    dz, ok = _solve_kkt(H, a, grad)
    if ok:
        dz[:d] -= dz[:d].mean()     # keep the step in the simplex tangent space despite rounding
    return dz, ok


def _first_stage(prob, x0, q0):
    """Index into BARRIER_MUS and start point for the barrier solve.

    A warm start near the optimum is nearly central for a small mu, and
    re-tracing the central path from mu = 1e-2 would move it away and
    back.  The solve starts at the smallest mu for which the lifted start
    is within O(mu) of stationary (or at the rounding floor) and lies in
    Newton's quadratic region (squared Newton decrement at most mu / 16),
    and at BARRIER_MUS[0] otherwise.  A cold start is O(1) from
    stationary and starts at 1e-2.
    """
    for k in range(len(BARRIER_MUS) - 1, 0, -1):
        mu = BARRIER_MUS[k]
        z = prob.lift(x0, q0, mu)
        g = prob.con_values(z)
        if g.max() >= 0.0:
            continue
        J, grad, stationarity = _barrier_gradient(prob, z, mu, g)
        if stationarity > max(1e3 * mu, 1e-6):     # 1e-6: the rounding floor at small mu
            continue
        dz, ok = _newton_direction(prob, z, mu, g, J, grad)
        if ok and -float(grad @ dz) <= mu / 16.0:
            return k, z
    z = prob.lift(x0, q0)
    z[prob.d + 1 :] += 1.0      # tail excesses, lifted a unit into the strict interior
    return 0, z


def _solve_barrier(prob, z0: np.ndarray, cfg: SolverConfig, stop_when=None, first=0) -> _BarrierResult:
    z = np.array(z0, dtype=float)
    d = prob.d
    a = np.zeros(prob.n_vars)
    a[:d] = 1.0
    stage_iterations: list[int] = []
    total = 0
    note = None
    fatal = False
    mu = mu_prev = BARRIER_MUS[first]
    for mu in BARRIER_MUS[first:]:
        stage_tol = max(0.1 * mu, 0.1 * cfg.newton_tol)
        it = 0
        while it < cfg.newton_max_iter:
            g = prob.con_values(z)
            if g.max() >= 0.0:
                note = "iterate left the strict interior"
                fatal = True
                break
            x = z[:d]
            J, grad, stationarity = _barrier_gradient(prob, z, mu, g)
            if stationarity <= stage_tol:
                break
            # the first step of a stage keeps the previous stage's barrier
            # curvature: from a point central for mu_prev that step is the
            # central-path tangent step, where the new curvature would
            # overshoot each slack about mu_prev / mu times
            dz, ok = _newton_direction(prob, z, mu_prev if it == 0 else mu, g, J, grad)
            if not ok:
                note = "singular KKT system beyond regularization"
                fatal = True
                break
            if float(np.abs(dz).max()) <= 1e-13 * max(1.0, float(np.abs(z).max())):
                break    # stationarity is at its rounding floor; the polish takes over

            # fraction-to-boundary cap for the simplex block
            alpha = 1.0
            dx = dz[:d]
            shrinking = dx < 0.0
            if shrinking.any():
                alpha = min(1.0, float(0.99 * np.min(x[shrinking] / -dx[shrinking])))
            merit0 = _barrier_merit(prob, z, mu, g)
            slope = float(grad @ dz)
            accepted = False
            for _ in range(60):
                if alpha < 1e-16:
                    break
                znew = z + alpha * dz
                xn = znew[:d]
                if xn.min() > 0.0:
                    gn = prob.con_values(znew)
                    if gn.max() < 0.0:
                        merit = _barrier_merit(prob, znew, mu, gn)
                        if merit <= merit0 + 1e-4 * alpha * slope + 1e-12 * max(1.0, abs(merit0)):
                            accepted = True
                            break
                alpha *= 0.5
            if not accepted:
                note = note or "line search stalled"
                break
            z = znew
            it += 1
            total += 1
            if stop_when is not None and stop_when(z):
                stage_iterations.append(it)
                return _finalize_barrier(prob, z, a, mu, cfg, total, stage_iterations, note, polish=False)
        stage_iterations.append(it)
        if fatal:
            break
        mu_prev = mu
    return _finalize_barrier(prob, z, a, mu, cfg, total, stage_iterations, note, polish=True)


def _finalize_barrier(prob, z, a, mu, cfg, total, stage_iterations, note, polish=True) -> _BarrierResult:
    d = prob.d
    x = z[:d]
    g = prob.con_values(z)
    lam = mu / np.maximum(-g, 1e-300)
    grad = prob.obj_grad(z) + prob.con_jac(z).T @ lam
    bound = mu / np.maximum(x, 1e-300)
    grad[:d] -= bound
    nu = -float(a @ grad) / d
    stationarity = float(np.abs(grad + nu * a).max())
    primal = abs(float(x.sum()) - 1.0)
    ineq = float(max(g.max(), 0.0))
    bounds_viol = float(max(-x.min(), 0.0))
    kkt = max(stationarity, primal, ineq, bounds_viol)
    if polish:
        polished = _polish_active_set(prob, z, mu)
        if polished is not None and polished[0] < kkt:
            kkt, z, lam, bound, nu = polished
    return _BarrierResult(
        z=z,
        converged=bool(kkt <= cfg.newton_tol),
        kkt_residual=kkt,
        iterations=total,
        stage_iterations=tuple(stage_iterations),
        lam=lam,
        bound_multipliers=bound,
        eq_multiplier=nu,
        barrier_mu=mu,
        note=note,
    )


@dataclass(frozen=True)
class NewtonProblem:
    """Handle describing which smooth NLP the Newton phase should solve."""

    scenarios: ScenarioSet
    benchmark: DiscreteRandomVariable
    order: float
    risk_spec: RiskSpec | None = None


def max_return_problem(scenarios: ScenarioSet, benchmark: DiscreteRandomVariable, order) -> NewtonProblem:
    return NewtonProblem(scenarios, benchmark, order_value(order), None)


def min_risk_problem(
    scenarios: ScenarioSet, benchmark: DiscreteRandomVariable, order, spec: RiskSpec
) -> NewtonProblem:
    return NewtonProblem(scenarios, benchmark, order_value(order), spec)


@dataclass(frozen=True, eq=False)
class NewtonDiagnostics:
    converged: bool
    kkt_residual: float
    iterations: int
    stage_iterations: tuple[int, ...]
    barrier_mu: float
    ineq_multipliers: np.ndarray
    bound_multipliers: np.ndarray
    eq_multiplier: float
    note: str | None = None


def _strict_interior(cuts: _DominanceCuts, x: np.ndarray, cfg: SolverConfig):
    """Move x into the strict interior of the cut polytope, via phase 1 if needed."""
    d = cuts.d
    center = np.full(d, 1.0 / d)
    for theta in (0.0, 1e-6, 1e-4, 1e-2):
        cand = (1.0 - theta) * x + theta * center
        cand = np.maximum(cand, 1e-14)
        cand = cand / cand.sum()
        if cand.min() > 0.0 and cuts.values(cand).max() < -_INTERIOR_MARGIN:
            return cand, True
    xp = np.maximum(x, 1e-9)
    xp = xp / xp.sum()
    worst = float(cuts.values(xp).max())
    z0 = np.concatenate([xp, [worst + max(1.0, abs(worst))]])
    res = _solve_barrier(
        _Phase1Problem(cuts),
        z0,
        cfg,
        stop_when=lambda z: float(cuts.values(z[:d]).max()) <= -10.0 * _INTERIOR_MARGIN,
    )
    xc = np.maximum(res.z[:d], 0.0)
    xc = xc / xc.sum()
    if xc.min() > 0.0 and float(cuts.values(xc).max()) < -_INTERIOR_MARGIN:
        return xc, True
    # no strict interior: the phase-1 point is still the best feasibility
    # approximant available (boundary-only feasible sets are legitimate,
    # e.g. a benchmark that is the unique dominating portfolio)
    return xc, False


def _build_inner_problem(problem: NewtonProblem, cuts: _DominanceCuts):
    s, spec = problem.scenarios, problem.risk_spec
    if spec is None:
        return _LinearProblem(-s.mean_returns(), cuts)
    if spec.beta == 0.0:
        return _LinearProblem(spec.sign * s.mean_returns(), cuts)
    return _RiskProblem(s, spec, cuts)


def _inner_q(problem: NewtonProblem, x: np.ndarray) -> float:
    """Minimizer over q of the risk functional at weights x."""
    s, spec = problem.scenarios, problem.risk_spec
    return minimize_phi(spec.losses(x @ s.returns), s.scenario_probabilities, spec.beta, spec.r).q_star


def newton_refine(
    problem: NewtonProblem,
    start: PortfolioWeights,
    thresholds,
    cfg: SolverConfig | None = None,
    q0: float | None = None,
) -> tuple[PortfolioWeights, float | None, NewtonDiagnostics]:
    """Solve the problem over the finite threshold cut set by barrier Newton.

    Returns the weights, the auxiliary risk parameter for min-risk
    problems (None otherwise), and diagnostics carrying the final KKT
    residual and multipliers.  The returned weights are clipped and
    renormalized onto the simplex.
    """
    cfg = cfg or SolverConfig()
    s, spec = problem.scenarios, problem.risk_spec
    if start.d != s.d:
        raise DimensionError(f"start has {start.d} weights but the scenario set has {s.d} assets")
    cuts = _DominanceCuts(s, problem.benchmark, problem.order, thresholds)
    inner = _build_inner_problem(problem, cuts)
    x0, ok = _strict_interior(cuts, start.weights, cfg)
    if not ok:
        # boundary-only feasible set: return the phase-1 point, which
        # approximates the (unique) feasible allocation when one exists
        diag = NewtonDiagnostics(
            converged=False,
            kkt_residual=float("inf"),
            iterations=0,
            stage_iterations=(),
            barrier_mu=BARRIER_MUS[0],
            ineq_multipliers=np.zeros(inner.m),
            bound_multipliers=np.zeros(s.d),
            eq_multiplier=0.0,
            note="no strictly interior point found for the cut set",
        )
        q_out = None if spec is None else (q0 if q0 is not None else _inner_q(problem, x0))
        return PortfolioWeights(x0), q_out, diag
    q_start = None
    if isinstance(inner, _RiskProblem):
        q_start = q0 if q0 is not None else _inner_q(problem, x0)
    first, z0 = _first_stage(inner, x0, q_start)
    res = _solve_barrier(inner, z0, cfg, first=first)
    x = np.maximum(res.z[: s.d], 0.0)
    x /= x.sum()
    if spec is None:
        q_out = None
    elif isinstance(inner, _RiskProblem):
        q_out = float(res.z[s.d])
    else:
        q_out = _inner_q(problem, x)
    diag = NewtonDiagnostics(
        converged=res.converged,
        kkt_residual=res.kkt_residual,
        iterations=res.iterations,
        stage_iterations=res.stage_iterations,
        barrier_mu=res.barrier_mu,
        ineq_multipliers=res.lam,
        bound_multipliers=res.bound_multipliers,
        eq_multiplier=res.eq_multiplier,
        note=res.note,
    )
    return PortfolioWeights(x), q_out, diag


def kkt_residual(
    problem: NewtonProblem,
    weights: PortfolioWeights,
    thresholds,
    diag: NewtonDiagnostics,
    q: float | None = None,
) -> float:
    """Recompute the first-order optimality residual at a returned point.

    For the lifted risk problem the tail excess is rebuilt as (L - q)_+.
    """
    s = problem.scenarios
    cuts = _DominanceCuts(s, problem.benchmark, problem.order, thresholds)
    inner = _build_inner_problem(problem, cuts)
    z = inner.lift(weights.weights, q)
    grad = inner.obj_grad(z).copy()
    g = inner.con_values(z)
    grad += inner.con_jac(z).T @ diag.ineq_multipliers
    grad[: s.d] -= diag.bound_multipliers
    a = np.zeros(inner.n_vars)
    a[: s.d] = 1.0
    stationarity = float(np.abs(grad + diag.eq_multiplier * a).max())
    primal = abs(float(weights.weights.sum()) - 1.0)
    ineq = float(max(g.max(), 0.0))
    return max(stationarity, primal, float(max(-weights.weights.min(), 0.0)), ineq)


def optimize_max_return(
    s: ScenarioSet, benchmark: DiscreteRandomVariable, p, cfg: SolverConfig | None = None
) -> SolveReport:
    """Maximize expected return subject to dominance over the benchmark at order p."""
    return _constraint_generation(s, benchmark, p, cfg or SolverConfig(), None)


def optimize_min_risk(
    s: ScenarioSet,
    benchmark: DiscreteRandomVariable,
    p,
    spec: RiskSpec,
    cfg: SolverConfig | None = None,
) -> SolveReport:
    """Minimize the higher-order risk measure subject to dominance at order p."""
    if not isinstance(spec, RiskSpec):
        raise DomainError("spec must be a RiskSpec")
    return _constraint_generation(s, benchmark, p, cfg or SolverConfig(), spec)


def _constraint_generation(s, benchmark, p, cfg, spec) -> SolveReport:
    p = order_value(p)
    if p < 2.0:
        raise DomainError(
            "the optimizer requires stochastic order >= 2; orders in [1, 2) are verification-only"
        )
    if s.d == 1:
        return _single_asset_report(s, benchmark, p, spec, cfg)

    problem = NewtonProblem(s, benchmark, p, spec)
    thresholds = [float(t) for t in np.unique(benchmark.outcomes)]
    current = PortfolioWeights.equal(s.d)
    q_prev: float | None = None
    newton_total = 0
    rounds = 0
    generated = 0
    least_gap = float("inf")
    while True:
        rounds += 1
        refined, q_prev, diag = newton_refine(problem, current, thresholds, cfg, q0=q_prev)
        newton_total += diag.iterations
        cert = verify(portfolio_return_variable(s, refined), benchmark, p, cfg.constraint_tol)
        gap = max(0.0, cert.worst_gap)
        least_gap = min(least_gap, gap)
        if gap <= cfg.constraint_tol:
            if diag.converged:
                message = None
            elif _at_empty_tail(s, spec, refined):
                message = (
                    "the optimum sits at an empty tail (the risk equals the largest loss), "
                    "where the r-norm has no gradient; the smooth KKT residual "
                    f"{diag.kkt_residual:.3e} cannot reach newton_tol {cfg.newton_tol:g} there"
                )
            else:
                message = diag.note or (
                    f"KKT residual {diag.kkt_residual:.3e} above newton_tol {cfg.newton_tol:g}"
                )
            return _success_report(
                s, benchmark, p, spec, refined, diag.converged, cert, thresholds,
                rounds, newton_total, message,
            )
        t_new = float(cert.worst_t)
        if any(abs(t_new - t) <= 1e-9 * max(1.0, abs(t_new)) for t in thresholds):
            stop = f"the worst threshold t = {t_new:.10g} repeats a cut"
            break
        if generated >= cfg.max_generated_constraints:
            stop = f"{generated} generated thresholds reached max_generated_constraints"
            break
        thresholds.append(t_new)
        generated += 1
        current = refined

    # budget exhausted or stalled: sweep simple candidates by the true objective
    def objective(w: PortfolioWeights) -> float:
        port = portfolio_return_variable(s, w)
        return -mean(port) if spec is None else higher_order_risk(port, spec).rho

    candidates = [refined.weights, np.full(s.d, 1.0 / s.d), *np.eye(s.d)]
    best = None
    for xc in candidates:
        w = PortfolioWeights(xc)
        cert = verify(portfolio_return_variable(s, w), benchmark, p, cfg.constraint_tol)
        gap = max(0.0, cert.worst_gap)
        if gap > cfg.constraint_tol:
            least_gap = min(least_gap, gap)
            continue
        score = objective(w)
        if best is None or score < best[0]:
            best = (score, w, cert)
    if best is not None:
        return _success_report(
            s, benchmark, p, spec, best[1], False, best[2], thresholds, rounds, newton_total,
            f"constraint generation stopped ({stop}); returned the best dominating "
            "candidate of the fallback sweep",
        )
    return SolveReport(
        weights=None,
        active_thresholds=(),
        q_star=None,
        objective_value=None,
        expected_return=None,
        benchmark_return=mean(benchmark),
        risk_value=None,
        simplex_residual=None,
        dominance_residual=None,
        converged=False,
        iterations={"newton": newton_total, "constraint_rounds": rounds},
        infeasible=True,
        message=(
            f"no allocation satisfies the stochastic dominance constraint at order {p:g} "
            f"within tolerance {cfg.constraint_tol:g}; least violated gap found: {least_gap:.6e}"
        ),
    )


def _at_empty_tail(s, spec, w) -> bool:
    """Whether the lifted risk of w at r > 1 sits at an empty tail (u = 0).

    There the risk equals the largest loss, within 1e-9 max(1, |risk|).
    """
    if spec is None or spec.beta == 0.0 or spec.r == 1.0:
        return False
    port = portfolio_return_variable(s, w)
    rho = higher_order_risk(port, spec).rho
    return abs(rho - float(spec.losses(port.outcomes).max())) <= 1e-9 * max(1.0, abs(rho))


def _active_thresholds(s, benchmark, p, w, thresholds, worst_t, activity_tol=1e-6):
    port = portfolio_return_variable(s, w)
    ts = np.asarray(thresholds, dtype=float)
    gaps = _Shortfall(p - 1.0, port, benchmark)(ts)
    order = np.argsort(-gaps, kind="stable")
    active = [float(ts[i]) for i in order if gaps[i] >= -activity_tol]
    out = [float(worst_t)]
    for t in active:
        if abs(t - worst_t) > 1e-12 * max(1.0, abs(t)):
            out.append(t)
    return tuple(out)


def _success_report(s, benchmark, p, spec, w, converged, cert, thresholds, rounds, newton_total,
                    message=None) -> SolveReport:
    port = portfolio_return_variable(s, w)
    expected = mean(port)
    if spec is not None:
        rv = higher_order_risk(port, spec)
        q_star, risk_value = rv.q_star, rv.rho
        objective = risk_value
    else:
        q_star = risk_value = None
        objective = expected
    return SolveReport(
        weights=w,
        active_thresholds=_active_thresholds(s, benchmark, p, w, thresholds, cert.worst_t),
        q_star=q_star,
        objective_value=objective,
        expected_return=expected,
        benchmark_return=mean(benchmark),
        risk_value=risk_value,
        simplex_residual=w.simplex_residual(),
        dominance_residual=max(0.0, cert.worst_gap),
        converged=bool(converged),
        iterations={"newton": newton_total, "constraint_rounds": rounds},
        infeasible=False,
        message=message,
    )


def _single_asset_report(s, benchmark, p, spec, cfg) -> SolveReport:
    w = PortfolioWeights(np.ones(1))
    cert = verify(portfolio_return_variable(s, w), benchmark, p, cfg.constraint_tol)
    if max(0.0, cert.worst_gap) > cfg.constraint_tol:
        return SolveReport(
            weights=None,
            active_thresholds=(),
            q_star=None,
            objective_value=None,
            expected_return=None,
            benchmark_return=mean(benchmark),
            risk_value=None,
            simplex_residual=None,
            dominance_residual=None,
            converged=False,
            iterations={"newton": 0, "constraint_rounds": 0},
            infeasible=True,
            message=(
                f"the single available asset does not dominate the benchmark at order {p:g}; "
                f"gap {cert.worst_gap:.6e} at t = {cert.worst_t:.6g}"
            ),
        )
    thresholds = [float(t) for t in np.unique(benchmark.outcomes)]
    return _success_report(s, benchmark, p, spec, w, True, cert, thresholds, 0, 0)
