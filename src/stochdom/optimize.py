"""Dominance-constrained portfolio optimizers.

Both optimizers share one deterministic pipeline.  Each round builds one
convex model over a finite set of dominance cuts (plus the mean
condition) and solves it by an infeasible-start primal-dual interior-point
method with Mehrotra predictor-corrector steps, started from equal
weights; its primal and dual residuals and duality gap certify the
optimum.  A constraint-generation loop adds cuts violated by the round's
weights until a full verification pass certifies dominance, or a round's
cut multipliers prove that no portfolio passes it (see `_ipm`), or the
loop stops and returns the last round's weights, which may not dominate.

The dominance cuts are one list of pairs (t, J), each a row in the
weights x (see `_Model`); the order decides only their kind.
Above order 2, J is None and the cut is the smooth moment bound
E[(t - x.xi)_+^k] <= E[(t - B)_+^k].  At order 2 dominance holds iff it
holds at the benchmark atoms, and E[(t - x.xi)_+] is the largest of the
linear sums sum_{j in J} p_j (t - x.xi_j) over scenario subsets J
(Rudolf & Ruszczynski, SIAM J. Optim. 2008), so J is the mask
{j : x.xi_j < t} of a linear subset cut.  At every order the list starts
empty (the floor rows cover the lowest benchmark atom) and each round
adds cuts at the thresholds most violated by its weights (see `_new_cuts`).

The min-risk objective is lifted over (x, q, u) with tail-excess rows
u_j >= L_j(x) - q and u_j >= 0: at r = 1 it is q + p.u / (1 - beta)
(Rockafellar & Uryasev, 2000), and at r > 1 it is q + eta / (1 - beta)
with eta >= ||u||_{r,p} written as the perspective row
sum_j p_j u_j^r eta^(1 - r) <= eta (Krokhmal, Quant. Finance 2007),
which stays smooth at an empty tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dominance import DEFAULT_VERIFY_TOL, _Shortfall, verify
from .risk import higher_order_risk, minimize_phi
from .types import (
    DiscreteRandomVariable,
    DomainError,
    PortfolioWeights,
    RiskSpec,
    ScenarioSet,
    mean,
    order_value,
    portfolio_return_variable,
)


# Interior-point iterations of one round, and the bound on its certificate:
# the primal residual, the dual residual and the duality gap, each relative
# to 1 + |objective|.
NEWTON_MAX_ITER = 100
NEWTON_TOL = 1e-10
# Constraint-generation rounds that may add cuts; one more round then solves
# with them.  A round adds up to CUTS_PER_ROUND cuts.
MAX_GENERATED_CONSTRAINTS = 50
# Cuts a round adds at most, at the most violated thresholds.
CUTS_PER_ROUND = 10


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a dominance-constrained portfolio optimization: a verified optimum (converged),
    infeasible (with its proof in `message`), or unconverged weights that may not dominate."""

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


def pso_search(*args, **kwargs):
    """Removed: no solve path runs a particle swarm.  The name remains so that
    code wrapping it by name (perfbench/spans.py) still resolves."""
    raise NotImplementedError("pso_search was removed; each round is solved by an interior-point method")


class _Model:
    """One round's smooth convex model.

    Variables y = (x), (x, q, u) at r = 1, or (x, q, u, eta) at r > 1.

    - The objective cost.y is linear: -E[x.xi] for max-return, the
      expected loss at beta = 0, q + c p.u at r = 1 and q + c eta at r > 1,
      with c = 1 / (1 - beta).
    - Bounds x, u, eta >= 0 and the simplex row sum(x) = 1.
    - Dense rows g(y) <= 0, in this order:
      - The mc dominance rows in x.  First one row per cut (t, J),
        sum_j p_j a_j (t - x.xi_j)^k / E[(t - B)_+^k] - 1, scaled by its
        benchmark moment so that cuts whose moments differ by orders of
        magnitude share one scale.  The order decides the kind of every
        cut.  Above order 2, J is None and a_j = [x.xi_j < t]: the row is
        the smooth moment bound E[(t - x.xi)_+^k] <= E[(t - B)_+^k].  At
        order 2 (k = 1), J is a boolean mask over the scenarios, kept as
        the rows of self.J, and a_j = J_j: the row is a linear subset cut,
        with a constant Jacobian row and no curvature.
      - Every cut threshold lies above the lowest benchmark atom min B.
        At min B the benchmark shortfall moment vanishes, which admits no
        strict sublevel interior (the portfolio moment is nonnegative), so
        dominance there is the per-scenario linear floor rows
        min B - x.xi_j <= 0, which do have an interior whenever one exists.
      - The last dominance row is the mean condition
        E[benchmark] - E[x.xi] <= 0, which dominance at any order p >= 2
        requires.
      - slack[i] bounds dominance row i at any portfolio that passes
        `verify` at tol.
      - For a risk objective, L_j(x) - q - u_j <= 0 and, at r > 1, the
        perspective row sum_j p_j u_j^r eta^(1 - r) - eta <= 0, that is
        eta >= ||u||_{r,p}.  At an optimum u = (L - q)_+ and
        eta = ||u||_{r,p}, so the objective is phi(q) of the risk measure.
    """

    def __init__(self, s: ScenarioSet, benchmark, order, spec: RiskSpec | None, cuts, tol):
        self.xi = s.returns
        self.probs = s.scenario_probabilities
        self.mr = s.mean_returns()
        self.bench_mean = mean(benchmark)
        self.k = order_value(order) - 1.0
        self.d, self.n = d, n = s.d, s.n
        self.floor = float(benchmark.outcomes[0])
        # rows in ascending t (stable), so that the model does not depend on the order the
        # cuts came in: each Newton solve's rounding, and at times a round's iteration
        # count, depends on the order of the rows
        cuts = sorted(cuts, key=lambda c: c[0])
        self.ts = np.array([t for t, _ in cuts], dtype=float)
        if self.k == 1.0:
            self.J = np.array([J for _, J in cuts], dtype=bool).reshape(-1, n)
        # a fractional-order moment rounds differently with the other thresholds
        # of its sweep block, so every cut's moment comes from one sorted array
        grid = np.unique(np.append(self.floor, self.ts))
        self.bench = _Shortfall(self.k, benchmark)(grid)[np.searchsorted(grid, self.ts)]
        # above order 2 verify lets the mean fall short by tol times the support width
        mean_slack = tol if self.k == 1.0 else tol * np.ptp(np.append(self.xi, benchmark.outcomes))
        self.slack = np.concatenate([tol / self.bench, (tol / self.probs) ** (1.0 / self.k), [mean_slack]])
        self.mc = self.ts.size + n + 1
        if spec is None or spec.beta == 0.0:
            # max-return, or the expected loss, which is the risk at beta = 0 for every r
            self.r = None
            self.cost = RiskSpec.losses(self.mr)
        else:
            self.r, self.loss, c = spec.r, spec.losses(self.xi), 1.0 / (1.0 - spec.beta)
            equal = spec.losses(np.full(d, 1.0 / d) @ self.xi)
            self.q_start = minimize_phi(equal, self.probs, spec.beta, spec.r).q_star
            tail = [c * self.probs] if self.r == 1.0 else [np.zeros(n), [c]]
            self.cost = np.concatenate([np.zeros(d), [1.0], *tail])
        self.N = N = self.cost.size
        self.bounded = np.r_[0:d, d + 1 : N]
        self.m = self.mc + (0 if self.r is None else n + (self.r > 1.0))

    def _terms(self, x: np.ndarray):
        """x.xi, t_i - x.xi_j and the cut indicators a_ij: J at order 2, [x.xi_j < t_i] above."""
        out = x @ self.xi
        diff = self.ts[:, None] - out[None, :]
        return out, diff, self.J if self.k == 1.0 else diff > 0.0

    def rows(self, y: np.ndarray):
        """Values and Jacobian of the dense rows."""
        d, n, T, mc, x = self.d, self.n, self.ts.size, self.mc, y[: self.d]
        g = np.empty(self.m)
        J = np.zeros((self.m, self.N))
        out, diff, a = self._terms(x)
        base = np.where(a, diff, 0.0)
        g[:T] = (base**self.k) @ self.probs / self.bench - 1.0
        # times a: at k = 1, 0^0 = 1 off the subset
        w = self.k * base ** (self.k - 1.0) * a
        J[:T, :d] = -((w * self.probs[None, :]) @ self.xi.T) / self.bench[:, None]
        g[T : T + n] = self.floor - out
        J[T : T + n, :d] = -self.xi.T
        g[T + n] = self.bench_mean - float(self.mr @ x)
        J[T + n, :d] = -self.mr
        if self.r is not None:
            q, u = y[d], y[d + 1 : d + 1 + n]
            g[mc : mc + n] = x @ self.loss - q - u
            J[mc : mc + n, :d] = self.loss.T
            J[mc : mc + n, d] = -1.0
            J[mc + np.arange(n), d + 1 + np.arange(n)] = -1.0
            if self.r > 1.0:
                r, eta = self.r, y[-1]
                rho = u / eta
                g[-1] = eta * (float(self.probs @ rho**r) - 1.0)
                J[-1, d + 1 : d + 1 + n] = r * self.probs * rho ** (r - 1.0)
                J[-1, -1] = (1.0 - r) * float(self.probs @ rho**r) - 1.0
        return g, J

    def hess(self, y: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Multiplier-weighted sum of the dense rows' Hessians."""
        d, n = self.d, self.n
        H = np.zeros((self.N, self.N))
        if self.r is not None and self.r > 1.0:
            # (r (r - 1) / eta) sum_j p_j rho_j^(r - 2) [e_j; -rho_j][e_j; -rho_j]'
            r, eta = self.r, y[-1]
            rho = y[d + 1 : d + 1 + n] / eta
            h = lam[-1] * r * (r - 1.0) / eta * self.probs * rho ** (r - 2.0)
            idx = d + 1 + np.arange(n)
            H[idx, idx] = h
            H[idx, -1] = H[-1, idx] = -h * rho
            H[-1, -1] = float(h @ rho**2)
        if self.k == 1.0:   # order 2: k (k - 1) = 0, every cut is linear
            return H
        _, diff, a = self._terms(y[:d])
        lam_s = lam[: self.ts.size] / self.bench
        expo = self.k - 2.0
        if expo < 0.0:
            # curvature of (.)^k is integrably singular at the kink for
            # k < 2; clamping keeps the Hessian finite
            base = np.where(a, np.maximum(diff, 1e-10), 1.0)
        else:
            base = np.where(a, diff, 0.0)
        pw = np.where(a, base**expo, 0.0)
        coef = self.k * (self.k - 1.0) * ((lam_s[:, None] * pw) * self.probs[None, :]).sum(axis=0)
        H[:d, :d] = (self.xi * coef[None, :]) @ self.xi.T
        return H

    def near_cone(self, y: np.ndarray) -> bool:
        """Whether ||u||_{r,p} <= 8 eta at r > 1 (always true otherwise)."""
        if self.r is None or self.r == 1.0:
            return True
        return bool(self.probs @ (y[self.d + 1 : -1] / y[-1]) ** self.r <= 8.0**self.r)

    def start(self) -> "_Iterate":
        """Equal weights; every other primal value, slack and multiplier at least 1."""
        d = self.d
        x = np.full(d, 1.0 / d)
        y = x
        if self.r is not None:
            u = np.maximum(x @ self.loss - self.q_start, 0.0) + 1.0
            y = np.concatenate([x, [self.q_start], u])
            if self.r > 1.0:
                y = np.append(y, float(self.probs @ u**self.r) ** (1.0 / self.r) + 1.0)
        g, _ = self.rows(y)
        return _Iterate(y, np.ones(self.bounded.size), np.maximum(-g, 1.0), np.ones(g.size),
                        np.zeros(1))


@dataclass(eq=False)
class _Iterate:
    """Primal-dual point: y with bound duals zb, dense-row slacks w and multipliers lam,
    and the simplex multiplier nu."""

    y: np.ndarray
    zb: np.ndarray
    w: np.ndarray
    lam: np.ndarray
    nu: np.ndarray

    def pairs(self, model):
        """(primal, dual) complementarity pairs."""
        return [(self.y[model.bounded], self.zb), (self.w, self.lam)]

    def advance(self, d: "_Iterate", alpha: float) -> None:
        """Move by alpha d, in place."""
        for mine, step in zip(vars(self).values(), vars(d).values()):
            mine += alpha * step


@dataclass(frozen=True, eq=False)
class _IPMResult:
    """The returned iterate's y and how the solve ended; certificate is (L, lam.s) of `_ipm`."""

    y: np.ndarray
    converged: bool
    iterations: int
    message: str | None
    certificate: tuple[float, float] | None


def _direction(model: _Model, it: _Iterate, J, H, res, comp) -> _Iterate:
    """Newton direction of the KKT conditions with complementarity residuals comp.

    The bound and dense-row complementarity equations are eliminated into
    their diagonal scalings, which leaves the quasi-definite augmented
    system over (y, dense-row multipliers, nu).
    """
    d, N, m = model.d, model.N, model.m
    ry, rp, re = res
    cz, cw = comp
    B, yb = model.bounded, it.y[model.bounded]
    K = np.zeros((N + m + 1, N + m + 1))
    K[:N, :N] = H
    K[B, B] += it.zb / yb
    K[:N, N : N + m] = J.T
    K[N : N + m, :N] = J
    K[N + np.arange(m), N + np.arange(m)] = -it.w / it.lam
    K[:d, -1] = K[-1, :d] = 1.0
    rhs = np.concatenate([-ry, cw / it.lam - rp, [-re]])
    rhs[B] -= cz / yb
    sol = np.linalg.solve(K, rhs)
    dy = sol[:N]
    return _Iterate(dy, -(cz + it.zb * dy[B]) / yb, -rp - J @ dy, sol[N : N + m], sol[-1:])


def _max_step(pairs, dpairs) -> tuple[float, float]:
    """Largest primal and dual steps in (0, 1] that keep every pair nonnegative."""

    def ratio(v, dv):
        neg = dv < 0.0
        return float(np.min(-v[neg] / dv[neg], initial=1.0))

    return (min(ratio(v, dv) for (v, _), (dv, _) in zip(pairs, dpairs)),
            min(ratio(z, dz) for (_, z), (_, dz) in zip(pairs, dpairs)))


def _mehrotra(model: _Model, it: _Iterate, J, res, pairs, floor: float) -> _Iterate:
    """Predictor-corrector direction: the affine-scaling step sets the centering
    target sigma mu, sigma = (mu_aff / mu)^3, floored per pair at floor / count,
    and its second-order term corrects the complementarity residuals."""
    count = sum(v.size for v, _ in pairs)
    mu = sum(float(np.sum(v * z)) for v, z in pairs) / count
    H = model.hess(it.y, it.lam)
    with np.errstate(all="ignore"):
        aff = _direction(model, it, J, H, res, [v * z for v, z in pairs])
        dpairs = aff.pairs(model)
        del aff
        ap, ad = _max_step(pairs, dpairs)
        mu_aff = sum(float(np.sum((v + ap * dv) * (z + ad * dz)))
                     for (v, z), (dv, dz) in zip(pairs, dpairs)) / count
        target = max(mu * (mu_aff / mu) ** 3, floor / count)
        comp = [dv * dz for _, (dv, dz) in zip(pairs, dpairs)]
        del dpairs
        for c, (v, z) in zip(comp, pairs):
            c += v * z
            c -= target
        return _direction(model, it, J, H, res, comp)


def _ipm(model: _Model) -> _IPMResult:
    """Mehrotra predictor-corrector interior-point solve of the model from model.start().

    Converged means the primal residual, the dual residual and the duality
    gap (the sum of the complementarity products) are each at most
    NEWTON_TOL (1 + |objective|).  Otherwise the iterate with the smallest
    of those relative residuals is returned with the stop reason and the
    residuals above the tolerance.
    The cut rows g are convex, so at an iterate x their multipliers lam (clipped at 0, sum 1)
    prove that no z passes `verify` when L = lam.g(x) + min_j G_j - G.x (G = J(x)' lam) exceeds
    lam.s beyond rounding: lam.g(z) >= L on the simplex, but lam.g(z) <= lam.s if z passes.
    """
    tol = NEWTON_TOL
    d, mc = model.d, model.mc
    it = model.start()
    best = certificate = None
    stop = "the iteration limit"
    k = 0
    while True:
        g, J = model.rows(it.y)
        # the dual residual, then the primal residuals of the dense rows and the simplex row
        ry = model.cost + J.T @ it.lam
        ry[:d] += it.nu
        ry[model.bounded] -= it.zb
        res = [ry, g + it.w, float(it.y[:d].sum()) - 1.0]
        pairs = it.pairs(model)
        gap = sum(float(np.sum(v * z)) for v, z in pairs)
        scale = 1.0 + abs(float(model.cost @ it.y))
        norms = (max(float(np.abs(r).max(initial=0.0)) for r in res[1:]),
                 float(np.abs(res[0]).max(initial=0.0)), gap)
        merit = max(norms) / scale
        if not np.isfinite(merit):
            stop = "a non-finite iterate"
            break
        if best is None or merit <= best[0]:
            best = (merit, it.y.copy(), norms, scale)
        lam = np.maximum(it.lam[:mc], 0.0)
        lam /= lam.sum()
        G = J[:mc, :d].T @ lam
        bound, allowed = lam @ g[:mc] + G.min() - G @ it.y[:d], lam @ model.slack
        if bound > allowed + 1e-9 * (1.0 + lam @ np.abs(g[:mc]) + np.abs(G).max()):
            certificate, stop = (float(bound), float(allowed)), "an infeasibility certificate"
            break
        if merit <= tol or k == NEWTON_MAX_ITER:
            break
        try:
            step = _mehrotra(model, it, J, res, pairs, 0.1 * tol * scale)
        except np.linalg.LinAlgError:
            stop = "a singular Newton system"
            break
        alpha = 0.995 * min(_max_step(pairs, step.pairs(model)))
        # a step may leave the perspective row's feasible set only as far as
        # ||u||_{r,p} <= 8 eta: further out, (u / eta)^r makes the row's
        # linearization useless (its residual once grew 180-fold in one step)
        for _ in range(60):
            if model.near_cone(it.y + alpha * step.y):
                break
            alpha *= 0.5
        it.advance(step, alpha)
        del step
        k += 1
    merit, y, norms, scale = best
    converged = merit <= tol
    names = ("primal residual", "dual residual", "duality gap")
    message = None if converged else (
        f"interior-point solve stopped at {stop} after {k} iterations with "
        + ", ".join(name for name, v in zip(names, norms) if v / scale > tol)
        + f" above NEWTON_TOL {tol:g} relative to 1 + |objective|: "
        + ", ".join(f"{name} {v:.3e}" for name, v in zip(names, norms))
    )
    return _IPMResult(y, converged, k, message, certificate)


def newton_refine(s: ScenarioSet, benchmark, order, spec: RiskSpec | None, cuts, tol):
    """Solve one round's model over a finite list of cuts from equal weights.

    cuts holds the pairs (t, J) of `_Model`: J is None above order
    2 and a boolean mask over the scenarios at order 2.  tol is the
    tolerance of `verify`.  Returns the weights (clipped and renormalized
    onto the simplex), the lifted q for a min-risk problem with beta > 0
    (None otherwise), and the interior-point result with `converged`,
    `iterations`, `message` and `certificate`.
    """
    model = _Model(s, benchmark, order, spec, cuts, tol)
    res = _ipm(model)
    x = np.maximum(res.y[: s.d], 0.0)
    return PortfolioWeights(x / x.sum()), (None if model.r is None else float(res.y[s.d])), res


def optimize_max_return(
    s: ScenarioSet, benchmark: DiscreteRandomVariable, p, tol: float = DEFAULT_VERIFY_TOL
) -> SolveReport:
    """Maximize expected return subject to dominance over the benchmark at order p.

    tol is the dominance tolerance the returned portfolio is verified to.
    """
    return _constraint_generation(s, benchmark, p, tol, None)


def optimize_min_risk(
    s: ScenarioSet,
    benchmark: DiscreteRandomVariable,
    p,
    spec: RiskSpec,
    tol: float = DEFAULT_VERIFY_TOL,
) -> SolveReport:
    """Minimize the higher-order risk measure subject to dominance at order p, verified to tol."""
    if not isinstance(spec, RiskSpec):
        raise DomainError("spec must be a RiskSpec")
    return _constraint_generation(s, benchmark, p, tol, spec)


def _constraint_generation(s, benchmark, p, tol, spec) -> SolveReport:
    p = order_value(p)
    if p < 2.0:
        raise DomainError(
            "the optimizer requires stochastic order >= 2; orders in [1, 2) are verification-only"
        )
    if not (np.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
    cuts = []
    iterations = {"newton": 0, "constraint_rounds": 0}
    no_alloc = f"no allocation dominates the benchmark at order {p:g} within tolerance {tol:g}"
    # The simplex is the single point x = (1), so its verify decides.  The interior-point
    # method cannot: the benchmark is then usually the asset itself, and its dominance
    # rows have no strict interior.  Without this branch [[1, 2, 3]] at order 3 with
    # RiskSpec(0.5, 2), benchmark the asset, stops at the iteration limit unconverged.
    if s.d == 1:
        w = PortfolioWeights([1.0])
        cert = verify(portfolio_return_variable(s, w), benchmark, p, tol)
        ok = cert.worst_gap <= tol
        return _report(s, benchmark, p, spec, w if ok else None, cert, cuts, iterations, ok,
                       None if ok else f"{no_alloc}; least violated gap: {cert.worst_gap:.6e}")
    while True:
        iterations["constraint_rounds"] += 1
        w, _, res = newton_refine(s, benchmark, p, spec, cuts, tol)
        iterations["newton"] += res.iterations
        if res.certificate is not None:
            L, allowed = res.certificate
            return _report(s, benchmark, p, spec, None, None, cuts, iterations, False,
                           f"{no_alloc}: the cut multipliers give lambda.g(x) >= L = {L:.6e} "
                           f"on the simplex, above lambda.s = {allowed:.6e}, its bound if dominant")
        port = portfolio_return_variable(s, w)
        cert = verify(port, benchmark, p, tol)
        gap = max(0.0, cert.worst_gap)
        if gap <= tol:
            return _report(s, benchmark, p, spec, w, cert, cuts, iterations, res.converged,
                           res.message)
        new = _new_cuts(s, benchmark, p, w, port, cert, tol, cuts)
        stop = None if new else "no new cut: every violated threshold's cut is already in the model"
        if stop is None and iterations["constraint_rounds"] > MAX_GENERATED_CONSTRAINTS:
            stop = f"the budget of {MAX_GENERATED_CONSTRAINTS} cut-adding rounds ran out"
        if stop is not None:
            return _report(s, benchmark, p, spec, w, cert, cuts, iterations, False,
                           f"constraint generation stopped ({stop}); verify fails by {gap:.3e}")
        cuts.extend(new)


def _new_cuts(s, benchmark, p, w, port, cert, tol, cuts) -> list:
    """New cuts (t, J) at the weights w, whose return variable is port with certificate cert.

    The candidates are the benchmark atoms above the lowest (the floor rows
    cover that one) and, above order 2, verify's worst threshold when it
    lies above the lowest atom.  The gap E[(t - x.xi)_+^k] - E[(t - B)_+^k]
    is evaluated at each; at most CUTS_PER_ROUND candidates with a gap
    above tol, most violated relative to E[(t - B)_+^k] (the scale of the
    cut rows) first, each give a cut: J is None above order 2, and at
    order 2 the subset {j : x.xi_j < t} on which the cut is tight at w.
    A candidate is skipped when a cut with the same J already sits within
    1e-9 max(1, |t|) of t.
    """
    k = p - 1.0
    ts = benchmark.outcomes[1:]
    if k > 1.0 and cert.worst_t > benchmark.outcomes[0]:
        ts = np.append(ts, cert.worst_t)
    gaps = _Shortfall(k, port, benchmark)(ts)
    viol = np.flatnonzero(gaps > tol)
    rel = gaps[viol] / _Shortfall(k, benchmark)(ts[viol])
    out = w.weights @ s.returns
    new = []
    for i in viol[np.argsort(-rel, kind="stable")]:
        t = float(ts[i])
        J = out < t if k == 1.0 else None
        # every cut of one order has the same kind: J is None for all or for none
        if not any(abs(t - c) <= 1e-9 * max(1.0, abs(t)) and (J is None or np.array_equal(J, H))
                   for c, H in [*cuts, *new]):
            new.append((t, J))
            if len(new) == CUTS_PER_ROUND:
                break
    return new


def _report(s, benchmark, p, spec, w, cert, cuts, iterations, converged, message) -> SolveReport:
    """Report of the weights w with their certificate cert; w None means infeasible."""
    if w is None:
        return SolveReport(
            weights=None, active_thresholds=(), q_star=None, objective_value=None,
            expected_return=None, benchmark_return=mean(benchmark), risk_value=None,
            simplex_residual=None, dominance_residual=None, converged=False,
            iterations=iterations, infeasible=True, message=message,
        )
    port = portfolio_return_variable(s, w)
    # of the benchmark atoms and the cut thresholds, the worst, then those whose gap
    # is within 1e-6 of active, worst first
    ts = np.union1d(benchmark.outcomes, [t for t, _ in cuts])
    gaps = _Shortfall(p - 1.0, port, benchmark)(ts)
    active = [float(cert.worst_t)]
    for i in np.argsort(-gaps, kind="stable"):
        t = float(ts[i])
        if gaps[i] >= -1e-6 and abs(t - cert.worst_t) > 1e-12 * max(1.0, abs(t)):
            active.append(t)
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
        active_thresholds=tuple(active),
        q_star=q_star,
        objective_value=objective,
        expected_return=expected,
        benchmark_return=mean(benchmark),
        risk_value=risk_value,
        simplex_residual=w.simplex_residual(),
        dominance_residual=max(0.0, cert.worst_gap),
        converged=bool(converged),
        iterations=iterations,
        infeasible=False,
        message=message,
    )
