"""Lower partial moments, dominance gaps, and dominance verification.

The infinite constraint family "shortfall moment of Y below t never
exceeds that of X, for every threshold t" is reduced to a finite
threshold set: atoms of both variables, stationary points of the gap
between consecutive atoms, and geometric tail probes, backed by the
exact mean condition that controls the gap asymptote.

Shortfall moments E[(t - Z)_+^k] are evaluated by a sweep over the
sorted atoms, never by a thresholds x atoms matrix.  For integer k a
table of moments about each atom, P[m, j] = sum_{i <= m} p_i (z_m - z_i)^j
for j = 0..k, is built once by a shift recursion of nonnegative terms;
each threshold then costs a binary search and a degree-k polynomial in
its distance to the last atom below it.  With n atoms and T thresholds
that is O(n k + T (log n + k)) time and O(n k + T) memory.  Fractional
k has no such expansion: the thresholds are sorted and evaluated in
blocks of a fixed size, each against only the atoms below its largest
threshold, so memory stays O(n) per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .types import DiscreteRandomVariable, DomainError, mean, order_value

DEFAULT_VERIFY_TOL = 1e-8
_BLOCK = 256    # thresholds per block of a fractional-order evaluation


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the finite threshold reduction."""

    tail_horizon: float = 10.0      # tail probe span, in multiples of the combined support range
    tail_probes: int = 64
    interior_samples: int = 16      # gap-derivative sign scan density per open interval
    root_tol: float = 1e-12         # bracket width target for stationary points

    def __post_init__(self) -> None:
        if self.tail_horizon <= 0 or self.tail_probes < 1:
            raise DomainError("tail_horizon must be > 0 and tail_probes >= 1")
        if self.interior_samples < 2 or self.root_tol <= 0:
            raise DomainError("interior_samples must be >= 2 and root_tol > 0")


@dataclass(frozen=True)
class DominanceCertificate:
    """Verdict of a dominance check plus the worst threshold found."""

    dominates: bool
    order: float
    worst_t: float
    worst_gap: float
    checked_points: int
    tolerance: float


def _moment_table(z: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """P[m, j] = sum_{i <= m} w_i (z_m - z_i)^j for j = 0..k, z ascending.

    Moving the centre from z_{m-1} to z_m by h >= 0 gives the shift
    recursion P_j(m) = sum_{l <= j} C(j, l) h^(j - l) P_l(m - 1), plus
    w_m at j = 0; column j is therefore a running sum of terms built from
    the columns below it.  For nonnegative w every term is nonnegative.
    """
    table = np.empty((z.size, k + 1))
    table[:, 0] = np.cumsum(w)
    h = np.diff(z)
    for j in range(1, k + 1):
        step = np.zeros(z.size)
        for l in range(j):
            step[1:] += math.comb(j, l) * h ** (j - l) * table[:-1, l]
        table[:, j] = np.cumsum(step)
    return table


class _Shortfall:
    """t -> E[(t - Y)_+^k], or E[(t - Y)_+^k] - E[(t - X)_+^k] when x is given.

    (t - z)_+^k counts only atoms strictly below t, so k = 0 gives the
    left-continuous CDF and negative k (gap derivatives of orders below
    2) stays finite.  A gap is evaluated on the merged atoms of both
    variables: for integer k its coefficients are differences of the two
    variables' moment tables, so between consecutive atoms, and beyond
    the last one, it is one polynomial in the distance to a shared atom.

    Integer k costs O(n k) time and memory to build and O(log n + k) per
    threshold; fractional k costs O(n) per threshold and O(_BLOCK n)
    memory per block.
    """

    def __init__(self, k: float, y: DiscreteRandomVariable, x: DiscreteRandomVariable | None = None):
        self.k = float(k)
        if x is None:
            self.z = y.outcomes
            weights = [y.probabilities]
        else:
            self.z = np.union1d(y.outcomes, x.outcomes)
            weights = []
            for v in (y, x):
                w = np.zeros(self.z.size)
                w[np.searchsorted(self.z, v.outcomes)] = v.probabilities
                weights.append(w)
        self.table = None
        if self.k.is_integer():
            tables = [_moment_table(self.z, w, int(self.k)) for w in weights]
            self.table = tables[0] if x is None else tables[0] - tables[1]
        else:
            self.w = weights[0] if x is None else weights[0] - weights[1]

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if self.table is None:
            return self._blocks(ts)
        # sum_j C(k, j) d^(k - j) P_j(m) by Horner in d = t - z_m, with
        # z_m the last atom strictly below t
        k = int(self.k)
        m = np.searchsorted(self.z, ts, side="left") - 1
        below = m >= 0
        m = np.maximum(m, 0)
        d = ts - self.z[m]
        out = self.table[m, 0].copy()
        for j in range(1, k + 1):
            out *= d
            out += math.comb(k, j) * self.table[m, j]
        return np.where(below, out, 0.0)

    def _blocks(self, ts: np.ndarray) -> np.ndarray:
        order = np.argsort(ts, kind="stable")
        sorted_ts = ts[order]
        out = np.zeros(ts.size)
        for start in range(0, ts.size, _BLOCK):
            block = sorted_ts[start:start + _BLOCK]
            n = int(np.searchsorted(self.z, block[-1], side="left"))
            if n == 0:
                continue
            diff = block[:, None] - self.z[None, :n]
            powers = np.zeros_like(diff)
            np.power(diff, self.k, out=powers, where=diff > 0.0)
            out[order[start:start + _BLOCK]] = powers @ self.w[:n]
        return out


def lower_partial_moment(v: DiscreteRandomVariable, t: float, k: float) -> float:
    """E[(t - Z)_+^k], the k-th shortfall moment below threshold t.

    For k = 0 the convention is (t - z)_+^0 = 1 when z < t and 0
    otherwise, i.e. the left-continuous CDF at t.
    """
    t = float(t)
    if not np.isfinite(t):
        raise DomainError(f"threshold must be finite, got {t!r}")
    k = float(k)
    if not np.isfinite(k) or k < 0.0:
        raise DomainError(f"moment order k must be a finite real >= 0, got {k!r}")
    return float(_Shortfall(k, v)(np.array([t]))[0])


def dominance_gap_at(
    y: DiscreteRandomVariable, x: DiscreteRandomVariable, p, t: float
) -> float:
    """Gap g(t): shortfall moment of Y minus that of X at order p - 1.

    Positive values mean the dominance constraint is violated at t.
    """
    k = order_value(p) - 1.0
    return lower_partial_moment(y, t, k) - lower_partial_moment(x, t, k)


def _find_root(f, a: float, b: float, fa: float, fb: float, tol: float):
    """Safeguarded secant/bisection root on a sign-changing bracket.

    Alternating a bisection step guarantees the bracket halves at least
    every other iteration, so termination never depends on the secant.
    """
    for i in range(200):
        if b - a <= tol:
            break
        c = 0.5 * (a + b)
        if i % 2 == 0 and fb != fa:
            s = b - fb * (b - a) / (fb - fa)
            if a < s < b:
                c = s
        fc = f(c)
        if not np.isfinite(fc):
            return None
        if fc == 0.0:
            return c
        if (fc < 0.0) == (fa < 0.0):
            a, fa = c, fc
        else:
            b, fb = c, fc
    return 0.5 * (a + b)


def critical_thresholds(
    y: DiscreteRandomVariable,
    x: DiscreteRandomVariable,
    p,
    cfg: SearchConfig | None = None,
    diagnostics: dict | None = None,
) -> np.ndarray:
    """Finite ascending threshold set whose gap maximum matches the sup over all t.

    Contains every atom of both variables; for p = 2 (piecewise-linear
    gap) atoms plus tail probes suffice; for other orders above 1 the
    set adds interval midpoints and stationary points of the gap found
    by bracketed root finding on its derivative; p = 1 uses atoms plus
    midpoints (step-function CDF comparison).  Geometric tail probes
    cover the region beyond the last atom.
    """
    p = order_value(p)
    cfg = cfg or SearchConfig()
    atoms = np.unique(np.concatenate([y.outcomes, x.outcomes]))
    lo, hi = float(atoms[0]), float(atoms[-1])
    span = hi - lo
    if span <= 0.0:
        span = max(1.0, abs(hi))
    total = cfg.tail_horizon * span
    probes = hi + total * np.geomspace(1e-4, 1.0, cfg.tail_probes)
    pieces = [atoms, probes]

    if p != 2.0:
        if atoms.size > 1:
            pieces.append(0.5 * (atoms[:-1] + atoms[1:]))
        if p > 1.0:
            # the gap derivative can vanish between atoms and out in the
            # tail, so the probe segments are scanned as well
            bounds = np.unique(np.concatenate([atoms, probes]))
            pieces.append(_stationary_points(y, x, p, bounds, cfg, diagnostics))

    return np.unique(np.concatenate(pieces))


def _stationary_points(y, x, p, bounds, cfg, diagnostics) -> np.ndarray:
    """Zeros of the gap derivative inside each open segment between bounds.

    The derivative is sampled on every segment in one sweep; sign
    changes are refined by root finding on the same sweep tables.  A
    segment whose samples are all exactly zero has a constant gap and
    adds nothing beyond its endpoints.
    """
    # the derivative is (p - 1) times this slope, with the same zeros
    slope = _Shortfall(p - 2.0, y, x)

    def gprime(t: float) -> float:
        return float(slope(np.array([t]))[0])

    a, b = bounds[:-1], bounds[1:]
    keep = b - a > cfg.root_tol
    a, b = a[keep], b[keep]
    # sample up to the segment edges (offset dodges the derivative
    # singularity at atoms for orders below 3); zeros hugging an atom
    # are common for fractional orders
    inner = np.linspace(a, b, cfg.interior_samples + 2, axis=1)
    delta = 1e-9 * (b - a)
    inner[:, 0] = a + delta
    inner[:, -1] = b - delta
    vals = slope(inner.ravel()).reshape(inner.shape)
    vals[~vals.any(axis=1)] = np.nan

    found = [inner[vals == 0.0]]
    fallbacks = 0
    for s, i in zip(*np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)):
        root = _find_root(gprime, float(inner[s, i]), float(inner[s, i + 1]),
                          float(vals[s, i]), float(vals[s, i + 1]), cfg.root_tol)
        if root is None:
            # degrade to sampling: endpoints are atoms already in the
            # set, so only the midpoint is added here
            fallbacks += 1
            root = 0.5 * float(a[s] + b[s])
        found.append(np.array([root]))
    if diagnostics is not None:
        diagnostics["root_fallback_intervals"] = fallbacks
    return np.concatenate(found)


def verify(
    y: DiscreteRandomVariable,
    x: DiscreteRandomVariable,
    p,
    tol: float = DEFAULT_VERIFY_TOL,
    cfg: SearchConfig | None = None,
) -> DominanceCertificate:
    """Check whether Y dominates X in stochastic order p.

    Evaluates the gap over the critical threshold set and applies the
    exact tail condition mean(Y) >= mean(X) - tol, which governs the
    gap's asymptote for large thresholds.  When the mean condition is
    the binding violation, the certificate reports the mean deficit as
    the worst gap at the farthest probed threshold, so the invariant
    ``dominates == (worst_gap <= tolerance)`` always holds.
    """
    p = order_value(p)
    tol = float(tol)
    if not np.isfinite(tol) or tol < 0.0:
        raise DomainError(f"tolerance must be a finite real >= 0, got {tol!r}")
    ts = critical_thresholds(y, x, p, cfg)
    gaps = _Shortfall(p - 1.0, y, x)(ts)
    i = int(np.argmax(gaps))
    worst_t, worst_gap = float(ts[i]), float(gaps[i])
    mean_deficit = mean(x) - mean(y)
    if mean_deficit > tol and mean_deficit > worst_gap:
        worst_t, worst_gap = float(ts[-1]), mean_deficit
    return DominanceCertificate(
        dominates=bool(worst_gap <= tol),
        order=p,
        worst_t=worst_t,
        worst_gap=worst_gap,
        checked_points=int(ts.size),
        tolerance=tol,
    )
