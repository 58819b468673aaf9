"""Lower partial moments, dominance gaps, and certified dominance verification.

Y dominates X in order p when the gap g(t) = E[(t - Y)_+^k] - E[(t - X)_+^k],
k = p - 1, is at most the tolerance at every threshold t.  `verify`
bounds sup_t g(t) over the whole real line; no sampling density or probe
range enters the verdict.  Below the first atom g is 0, so the supremum
is never negative.

- Integer k.  Between consecutive atoms, and beyond the last one, g is a
  polynomial of degree k in the distance to the atom below, with
  coefficients read off the moment tables described below.  Its maximum
  on a segment, or in a bounded tail, sits at an atom or at a real root
  of its derivative.  One root search takes every segment and the tail
  together, a row each of the moment table: closed forms for
  derivatives of degree 1 and 2, batched companion-matrix eigenvalues
  above that.
- Fractional k.  Branch and bound, coarse to fine.  Split g = G+ - G-,
  the shortfall moments of the positive and negative parts of the
  signed measure P_Y - P_X.  Both are nondecreasing, and convex for
  k >= 1, on the whole line.  So on any [a, b], g is at most the chord
  of G+ minus the larger of the tangents of G- at a and b (k >= 1), or
  G+(b) - G-(a) (k < 1).  Either bound is piecewise linear and concave
  in t, so its maximum is exact.  For k >= 2 a bound from a lower bound
  on g'' follows the curvature of the gap itself, which is far smaller
  than that of its parts near a maximum.  The evaluated thresholds are
  one sorted array of knots, at first at most about 256 atoms evenly
  spaced in index.  Each round bounds the gap between every pair of
  neighbouring knots and splits, in one evaluation, each pair whose
  bound exceeds the best gap by more than 1e-10 max(1, best) plus the
  rounding of the moment sums: at its middle atom while it holds atoms,
  then into equal pieces.  The largest bound of the last round is the
  certified supremum.
- The tail.  Beyond the last atom z_N, with d = t - z_N and
  dM_j = sum_i (w^Y_i - w^X_i) (z_N - z_i)^j (for j < k, the terms that
  grow with d, its exact value rounded once),
  g = sum_j C(k, j) dM_j d^(k - j): a polynomial for
  integer k, and for fractional k a series that converges for d beyond
  the support width.  The first dM_j with j < k that is not negligible
  sets the sign of g at infinity.  Tolerance at infinity: dM_j counts as
  zero when |dM_j| <= tol span^j, with span the width of the combined
  support, so float rounding of the moments (about 1e-17 in the mean of
  a mean-preserving spread built in floats) cannot decide a verdict.  A
  positive sign makes the supremum +inf.  Otherwise integer orders take
  d = 0 and the real roots of the tail polynomial's derivative.
  Fractional orders run the branch and bound out to the window end, 10
  support widths past z_N; beyond it the series, truncated where a
  geometric bound on its remainder falls below 1e-10, peaks at a
  positive root of a polynomial (its derivative times a power of d),
  and that remainder bound is added to the certified supremum.

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

from .types import DiscreteRandomVariable, DomainError, order_value

DEFAULT_VERIFY_TOL = 1e-8
_BLOCK = 256            # thresholds per block of a fractional-order evaluation
_WINDOW = 10.0          # support widths past the last atom that every search covers
_REL_GAP = 1e-10        # a segment is done once its bound is this close to the best gap, times max(1, best)
_ROUNDING = 64 * np.finfo(float).eps    # relative rounding allowed on a sum of shortfall moments
_ROUND_POINTS = 256     # new thresholds per branch-and-bound round, at 2 to _MAX_PIECES pieces a segment
_MAX_PIECES = 16
_FLAT = 1e-14           # relative size below which a leading polynomial coefficient is dropped
_SERIES_TERMS = 40      # tail series terms available past ceil(k)
_EVALUATIONS = 32       # branch-and-bound evaluations allowed per starting threshold ...
_BASE_EVALUATIONS = 4096    # ... plus this many
_DOUBLINGS = 64         # doublings of the witness distance


@dataclass(frozen=True)
class DominanceCertificate:
    """Verdict of a dominance check, the worst threshold found, and what decided it.

    ``worst_gap`` is the gap attained at ``worst_t``, so ``dominates ==
    (worst_gap <= tolerance)``; up to 1e-10 relative it is never below
    the gap maximum over the support plus 10 support widths.
    ``upper_bound`` is the certified supremum of the gap over every
    threshold, +inf when the gap grows
    without bound beyond the last atom; then ``worst_t`` is a finite
    witness past those 10 widths whose gap exceeds both that maximum and
    the tolerance.  ``binding`` says what decided the verdict: ``"atom"``
    (an atom of either variable), ``"interior"`` (a point between
    atoms), ``"tail"`` (beyond the last atom) or ``"mean"`` (the mean
    difference: the order-2 gap beyond the last atom, or the unbounded
    growth it causes at higher orders).  ``checked_points`` counts the
    thresholds at which the gap was evaluated.
    """

    dominates: bool
    order: float
    worst_t: float
    worst_gap: float
    checked_points: int
    tolerance: float
    binding: str
    upper_bound: float


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


def _two_sum(a, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s + e == a + b exactly, with s = fl(a + b) (Knuth's TwoSum)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p + e == a * b exactly, with p = fl(a * b) (Dekker's TwoProduct by Veltkamp splitting)."""
    p = a * b

    def split(v):
        c = 134217729.0 * v        # 2^27 + 1
        high = c - (c - v)
        return high, v - high

    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


class _Shortfall:
    """t -> E[(t - Y)_+^k], or E[(t - Y)_+^k] - E[(t - X)_+^k] when x is given.

    (t - z)_+^k counts only atoms strictly below t, so k = 0 gives the
    left-continuous CDF.  A gap is evaluated on the merged atoms of both
    variables: for integer k its coefficients are differences of the two
    variables' moment tables, so between consecutive atoms, and beyond
    the last one, it is one polynomial in the distance to a shared atom.
    The last row, which multiplies the largest powers of the distance,
    comes from exactly rounded sums.

    Integer k costs O(n k) time and memory to build and O(log n + k) per
    threshold; fractional k costs O(n) per threshold and O(_BLOCK n)
    memory per block.
    """

    def __init__(self, k: float, y: DiscreteRandomVariable, x: DiscreteRandomVariable | None = None):
        self.k = float(k)
        if x is None:
            self.z = y.outcomes
            self.weights = [y.probabilities]
        else:
            self.z = np.union1d(y.outcomes, x.outcomes)
            self.weights = []
            for v in (y, x):
                w = np.zeros(self.z.size)
                w[np.searchsorted(self.z, v.outcomes)] = v.probabilities
                self.weights.append(w)
        self.w = self.weights[0] if x is None else self.weights[0] - self.weights[1]
        self.table = None
        if self.k.is_integer():
            tables = [_moment_table(self.z, w, int(self.k)) for w in self.weights]
            self.table = tables[0] if x is None else tables[0] - tables[1]
            self.table[-1] = self.tail_moments(int(self.k) + 1)

    def tail_moments(self, count: int) -> np.ndarray:
        """dM_j = sum_i w_i (z_N - z_i)^j for j < count about the last atom z_N.

        For a gap, w_i is the weight of Y minus that of X, summed as
        separate terms so that no weight difference is rounded first.
        The terms with j < k, which multiply growing powers of the
        distance in the tail, are carried as unevaluated sums of two
        floats (distances by TwoSum, products by Dekker's TwoProduct,
        about 1e-32 relative) and added by math.fsum, so each is its
        exact value rounded once.  The constant term of an integer order
        (j = k) is an fsum of rounded products; the decaying terms of a
        fractional-order series (j > k) are plain float sums.
        """
        z = np.concatenate([self.z[w > 0.0] for w in self.weights])
        hi = np.concatenate([w[w > 0.0] if i == 0 else -w[w > 0.0] for i, w in enumerate(self.weights)])
        lo = np.zeros(hi.size)
        dist, dist_err = _two_sum(self.z[-1], -z)
        grow = min(count, max(1, math.ceil(self.k)))
        out = np.empty(count)
        out[0] = math.fsum(hi)
        for j in range(1, grow):
            prod, err = _two_product(hi, dist)
            hi, lo = _two_sum(prod, err + (hi * dist_err + lo * dist))
            out[j] = math.fsum(np.concatenate([hi, lo]))
        if count > grow:
            later = hi[:, None] * dist[:, None] ** np.arange(1, count - grow + 1)
            out[grow:] = later.sum(axis=0)
            if self.k.is_integer():
                out[grow] = math.fsum(later[:, 0])
        return out

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if self.table is None:
            return self.sweep(ts, [self.w[:, None]])[:, 0]
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

    def sweep(self, ts: np.ndarray, weights: list[np.ndarray]) -> np.ndarray:
        """Columns sum_i weights[l][i, c] (t - z_i)_+^(k - l) for each t, l = 0, 1, ...

        The thresholds are evaluated in blocks of sorted thresholds; every
        order shares the powers of the lowest one, so a block costs one
        power per (threshold, atom) pair.
        """
        order = np.argsort(ts, kind="stable")
        sorted_ts = ts[order]
        out = np.zeros((ts.size, sum(w.shape[1] for w in weights)))
        ends = np.cumsum([w.shape[1] for w in weights])
        for start in range(0, ts.size, _BLOCK):
            block = sorted_ts[start:start + _BLOCK]
            n = int(np.searchsorted(self.z, block[-1], side="left"))
            if n == 0:
                continue
            rows = order[start:start + _BLOCK]
            diff = block[:, None] - self.z[None, :n]
            powers = np.zeros_like(diff)
            np.power(diff, self.k - len(weights) + 1.0, out=powers, where=diff > 0.0)
            for l in reversed(range(len(weights))):
                out[rows, ends[l] - weights[l].shape[1]:ends[l]] = powers @ weights[l][:n]
                if l:
                    powers *= diff
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


def _real_roots(c: np.ndarray) -> np.ndarray:
    """Real roots of the polynomials in the rows of c, highest power first.

    Rows are padded with nan to the full degree.  A leading coefficient
    below _FLAT times the row's largest is dropped, so callers scale the
    variable to the interval they search.  Degrees 1 and 2 use closed
    forms (the quadratic in its cancellation-free form); higher degrees
    use the eigenvalues of companion matrices, batched per degree.
    """
    rows, width = c.shape
    out = np.full((rows, width - 1), np.nan)
    mag = np.abs(c)
    big = mag > _FLAT * mag.max(axis=1, keepdims=True)
    degree = np.where(big.any(axis=1), width - 1 - big.argmax(axis=1), 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for deg in np.unique(degree[degree > 0]):
            sel = np.nonzero(degree == deg)[0]
            a = c[sel, width - 1 - deg:]
            if deg == 1:
                roots = -a[:, 1:] / a[:, :1]
            elif deg == 2:
                disc = a[:, 1] ** 2 - 4.0 * a[:, 0] * a[:, 2]
                q = -0.5 * (a[:, 1] + np.copysign(np.sqrt(np.maximum(disc, 0.0)), a[:, 1]))
                roots = np.stack([q / a[:, 0], a[:, 2] / q], axis=1)
                roots[disc < 0.0] = np.nan
            else:
                comp = np.zeros((sel.size, deg, deg))
                comp[:, 0, :] = -a[:, 1:] / a[:, :1]
                comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
                ev = np.linalg.eigvals(comp)
                real = np.abs(ev.imag) <= 1e-9 * np.maximum(1.0, np.abs(ev.real))
                roots = np.where(real, ev.real, np.nan)
            out[sel, :deg] = roots
    return out


def _critical_points(f: _Shortfall, lead: int | None, span: float) -> np.ndarray:
    """Zeros of the integer-order gap derivative inside each segment between atoms and in the tail.

    Row m of the table gives the derivative over k on segment m,
    sum_{j < k} C(k - 1, j) dP_j(m) d^(k - 1 - j) with d = t - z_m, solved
    in s = d / h_m on (0, 1).  The last row holds the tail's dM_j; its
    entries j < lead are negligible and dropped (all of them when lead is
    None, for a tail with no maximum), and it is solved in s = d / span
    on (0, inf).  One `_real_roots` call solves every row.
    """
    k = int(f.k)
    if k < 2:
        return np.empty(0)
    j = np.arange(k)
    coef = f.table[:, :k].copy()
    coef[-1, : k if lead is None else lead] = 0.0
    scale = np.append(np.diff(f.z), span)
    binom = np.array([math.comb(k - 1, i) for i in j], dtype=float)
    s = _real_roots(coef * binom * scale[:, None] ** (k - 1 - j))
    inside = (s > 0.0) & (s < np.append(np.ones(f.z.size - 1), np.inf)[:, None])
    return (f.z[:, None] + s * scale[:, None])[inside]


def _leading_moment(dm: np.ndarray, span: float, tol: float, limit: int) -> int | None:
    """Index j < limit of the first moment difference that is not negligible, or None."""
    for j in range(min(limit, dm.size)):
        try:
            if abs(dm[j]) > tol * span**j:
                return j
        except OverflowError:   # tol span^j exceeds every moment from here on
            return None
    return None


def _series_tail(dm: np.ndarray, k: float, lead: int | None, spread: float, total: float, start: float):
    """Where the fractional-order tail series peaks past distance start, and a bound on the gap there.

    For d >= start > spread, g(d) = T(d) + R(d) with the truncated series
    T(d) = sum_{lead <= j <= J} C(k, j) dM_j d^(k - j) (earlier terms are
    negligible and count as zero) and, since |dM_j| <= total spread^j and
    |C(k, j)| falls for j > k, |R(d)| <= |C(k, J + 1)| total d^k
    (spread / d)^(J + 1) / (1 - spread / d), which falls with d.  J is the
    first index past k that brings that bound at d = start below
    _REL_GAP, or the last one available.  T's derivative is
    d^(k - 1 - J) sum_j C(k, j) (k - j) dM_j d^(J - j), so T peaks at
    start, at a positive root of that polynomial, or tends to 0 at
    infinity when every term decays; no root is sought when the leading
    term alone outweighs the rest from start on, so T < 0 there.  Returns
    the roots past start and max T + max |R| over d >= start.
    """
    j = np.arange(dm.size + 1)
    binom = np.cumprod(np.append(1.0, (k - j[:-1]) / j[1:]))     # C(k, j)
    rests = np.abs(binom) * total * start**k * (spread / start) ** j / (1.0 - spread / start)
    small = np.nonzero((j > k) & (rests <= _REL_GAP))[0]
    last = (small[0] if small.size else dm.size) - 1
    rest = rests[last + 1]
    if lead is None or lead > last:
        return np.empty(0), rest
    j = np.arange(lead, last + 1)
    coef = binom[lead:last + 1] * dm[lead:last + 1]
    # T(d) <= d^(k - lead) (coef_lead + sum_{j > lead} |coef_j| start^(lead - j))
    # for d >= start: when that bracket is negative there is no peak to find
    if coef[0] + np.abs(coef[1:]) @ start ** (lead - j[1:]) <= 0.0:
        return np.empty(0), rest
    s = _real_roots(((k - j) * coef * start ** (last - j))[None, :])[0]
    peaks = np.sort(start * s[s > 1.0])
    d = np.append(start, peaks)
    top = float((coef * d[:, None] ** (k - j)).sum(axis=1).max())
    return peaks, max(top, 0.0 if k < lead else -math.inf) + rest


def _segment_bound(k: float, h: np.ndarray, va: np.ndarray, vb: np.ndarray, best: float):
    """The gap's upper bound on segments of width h with end values va and vb, and which stay open."""
    bound = vb[:, 0] - va[:, 1]
    if k >= 1.0:
        # chord of G+ minus max(tangent of G- at a, tangent at b): its
        # maximum is at a, at b, or where the tangents cross, c from a
        sa, sb = k * va[:, 2], k * vb[:, 2]
        c = np.divide(va[:, 1] - vb[:, 1] + sb * h, sb - sa, out=np.zeros(h.size), where=sb > sa)
        d = np.stack([np.zeros(h.size), np.minimum(np.maximum(c, 0.0), h), h])
        chord = va[:, 0] + (vb[:, 0] - va[:, 0]) * (d / h)
        tangent = np.maximum(va[:, 1] + sa * d, vb[:, 1] - sb * (h - d))
        bound = np.minimum(bound, (chord - tangent).max(axis=0))
    if k >= 2.0:
        m = k * (k - 1.0) * (va[:, 3] - vb[:, 4])
        ends = np.maximum(va[:, 0] - va[:, 1], vb[:, 0] - vb[:, 1])
        bound = np.minimum(bound, ends + np.maximum(-m, 0.0) * h * h / 8.0)
    slack = _REL_GAP * max(1.0, best) + _ROUNDING * (vb[:, 0] + vb[:, 1])
    return bound, bound > best + slack


def _branch_and_bound(f: _Shortfall, pts: np.ndarray):
    """Maximize the fractional-order gap over [pts[0], pts[-1]], pts the merged atoms and the window end.

    On a segment [a, b], with G+ and G- the shortfall moments of the
    positive and negative parts of P_Y - P_X, the gap is at most
    - G+(b) - G-(a), both parts being nondecreasing (every k > 0);
    - for k >= 1, the chord of G+ minus the larger tangent of G- at a
      or b, both parts being convex;
    - for k >= 2, max(g(a), g(b)) + |m| (b - a)^2 / 8 when m < 0, with
      m = k (k - 1) (Q+(a) - Q-(b)) <= g'' and Q+-, the parts' shortfall
      moments of order k - 2, nondecreasing.  This one follows the
      curvature of the gap rather than of its parts, which is what
      decides how fine a segment around a maximum must get.
    The smallest applicable bound is used.  All three hold on any
    interval, so with N atoms the knots start at every
    ceil(N / _ROUND_POINTS)-th atom, the last atom and the window end
    (every atom when N <= _ROUND_POINTS).  Each round splits every open
    pair of neighbouring knots, at its middle atom while it holds atoms,
    else into 2 to _MAX_PIECES equal pieces.  A pair too narrow to split
    in floats stays whole; every pair does once the next round would
    pass _EVALUATIONS evaluations per atom or window end plus
    _BASE_EVALUATIONS.  The largest bound of the last round is the
    certified upper bound on the gap over the interval, which may then
    exceed the best gap by more than the refinement tolerance.

    Returns the ascending knots, their gaps, the upper bound and the
    number of thresholds passed to the evaluator.
    """
    k = f.k
    parts = np.stack([np.maximum(f.w, 0.0), np.maximum(-f.w, 0.0)], axis=1)
    # columns: G+, G-, then G-'s order k - 1 moment, then Q+ and Q-
    weights = [parts, parts[:, 1:], parts][:1 + (k >= 1.0) + (k >= 2.0)]
    n = pts.size - 1
    ts = pts[np.unique(np.append(np.arange(0, n, math.ceil(n / _ROUND_POINTS)), [n - 1, n]))]
    vals = f.sweep(ts, weights)
    evaluations = ts.size
    budget = _EVALUATIONS * pts.size + _BASE_EVALUATIONS
    best = float((vals[:, 0] - vals[:, 1]).max())
    while True:
        a, b, h = ts[:-1], ts[1:], np.diff(ts)
        bound, open_ = _segment_bound(k, h, vals[:-1], vals[1:], best)
        # atoms strictly inside a segment are pts[lo:hi]
        lo, hi = np.searchsorted(pts, a, side="right"), np.searchsorted(pts, b, side="left")
        at_atom = open_ & (hi > lo)
        pieces = min(max(_ROUND_POINTS // max(1, int(open_.sum())), 2), _MAX_PIECES)
        # the new thresholds must be distinct floats strictly inside the segment
        even = open_ & ~at_atom & (h > 4 * pieces * np.spacing(np.abs(a) + np.abs(b)))
        count = int(at_atom.sum()) + int(even.sum()) * (pieces - 1)
        if count == 0 or evaluations + count > budget:
            break
        grid = a[even, None] + h[even, None] * (np.arange(1, pieces) / pieces)
        new_t = np.concatenate([pts[(lo + hi - 1)[at_atom] // 2], grid.ravel()])
        new_v = f.sweep(new_t, weights)
        evaluations += new_t.size
        best = max(best, float((new_v[:, 0] - new_v[:, 1]).max()))
        ts, vals = np.concatenate([ts, new_t]), np.concatenate([vals, new_v])
        order = np.argsort(ts, kind="stable")
        ts, vals = ts[order], vals[order]
    # a closed segment stays closed, as best only grows, so the last
    # round's bounds cover every segment ever closed
    upper = max(best, float(bound.max()))
    # the pruning rule leaves the best gap up to 1e-10 max(1, best) short
    # of the supremum; a parabola through the best threshold and its two
    # neighbours usually peaks much closer, at the cost of one evaluation
    gaps = vals[:, 0] - vals[:, 1]
    i = int(np.argmax(gaps))
    if 0 < i < ts.size - 1:
        (t0, t1, t2), (g0, g1, g2) = ts[i - 1:i + 2], gaps[i - 1:i + 2]
        den = (t1 - t0) * (g1 - g2) - (t1 - t2) * (g1 - g0)
        if den != 0.0:
            tv = t1 - 0.5 * ((t1 - t0) ** 2 * (g1 - g2) - (t1 - t2) ** 2 * (g1 - g0)) / den
            if t0 < tv < t2 and tv != t1:
                v = f.sweep(np.array([tv]), weights)[0]
                evaluations += 1
                at = i if tv < t1 else i + 1
                ts, gaps = np.insert(ts, at, tv), np.insert(gaps, at, v[0] - v[1])
    return ts, gaps, max(upper, float(gaps.max())), evaluations


def _witness(f: _Shortfall, hi: float, width: float, level: float) -> tuple[float, float]:
    """First threshold hi + width 2^i, i >= 1, whose gap exceeds level, with that gap."""
    t, g = hi, 0.0
    for i in range(1, _DOUBLINGS + 1):
        t = hi + width * 2.0**i
        g = float(f(np.array([t]))[0])
        if g > level:
            break
    return t, g


def critical_thresholds(
    y: DiscreteRandomVariable,
    x: DiscreteRandomVariable,
    p,
    tol: float = DEFAULT_VERIFY_TOL,
    diagnostics: dict | None = None,
) -> np.ndarray:
    """Ascending thresholds at which the gap was evaluated; their largest gap is its supremum.

    The set holds the window end, 10 support widths past the last atom.
    Integer orders add every atom of both variables and the real zeros
    of the gap derivative between atoms and in a bounded tail (order 1
    needs none: its gap is constant on (z_m, z_{m+1}]).  Fractional
    orders add the knots of their branch and bound up to the window end,
    one sorted array: every atom when the variables have N <= 256 atoms
    together, otherwise every ceil(N / 256)-th atom and the last one,
    plus each threshold at which an open segment split (an atom while
    the segment held atoms).  Then come the peaks of the truncated tail
    series past the window end.  When the gap is unbounded in the tail
    the set covers the window only.  ``tol``, a finite real >= 0, sets
    which moment differences count as zero at infinity.

    ``diagnostics``, when given, receives ``gaps`` (the gap at each
    threshold), ``upper_bound`` (the certified supremum, inf when
    unbounded), ``witness`` ((t, gap) past the window whose gap exceeds
    both the largest of ``gaps`` and ``tol``, or None when bounded),
    ``lead`` (index j of the moment difference that sets the gap's sign
    at infinity, or None) and ``evaluations`` (thresholds passed to the
    fractional-order evaluator; 0 at integer orders).
    """
    p = order_value(p)
    tol = float(tol)
    if not np.isfinite(tol) or tol < 0.0:
        raise DomainError(f"tolerance must be a finite real >= 0, got {tol!r}")
    k = p - 1.0
    f = _Shortfall(k, y, x)
    z = f.z
    lo, hi = float(z[0]), float(z[-1])
    span = hi - lo if hi > lo else max(1.0, abs(hi))
    window = _WINDOW * span
    dm = f.table[-1] if f.table is not None else f.tail_moments(math.ceil(k) + _SERIES_TERMS)
    # an integer-order tail is a polynomial: only its growing terms, j < k, can lead
    lead = _leading_moment(dm, span, tol, int(k) if f.table is not None else dm.size)
    # a leading term with j < k grows; its binomial coefficient is positive
    unbounded = lead is not None and lead < k and dm[lead] > 0.0
    evaluations = 0
    if f.table is not None:
        roots = _critical_points(f, None if unbounded else lead, span)
        ts = np.unique(np.concatenate([z, [hi + window], roots]))
        gaps = f(ts)
        upper = float(gaps.max())
    else:
        ts, gaps, upper, evaluations = _branch_and_bound(f, np.append(z, hi + window))
        if not unbounded:
            peaks, beyond = _series_tail(dm, k, lead, hi - lo, math.fsum(np.abs(f.w)), window)
            ts = np.append(ts, hi + peaks)
            gaps = np.append(gaps, f(hi + peaks))
            upper = max(upper, beyond, float(gaps.max()))
    witness = None
    if unbounded:
        upper = math.inf
        witness = _witness(f, hi, window, max(tol, float(gaps.max())))
    if diagnostics is not None:
        diagnostics.update(gaps=gaps, upper_bound=upper, witness=witness, lead=lead,
                           evaluations=evaluations)
    return ts


def _is_atom(v: DiscreteRandomVariable, t: float) -> bool:
    i = int(np.searchsorted(v.outcomes, t))
    return i < v.n_atoms and v.outcomes[i] == t


def verify(
    y: DiscreteRandomVariable,
    x: DiscreteRandomVariable,
    p,
    tol: float = DEFAULT_VERIFY_TOL,
) -> DominanceCertificate:
    """Check whether Y dominates X in stochastic order p.

    Takes the largest gap over the critical threshold set, or, when the
    gap grows without bound beyond the last atom, the witness past the
    window whose gap exceeds it; see the module docstring for why that
    maximum is the supremum over all thresholds.
    """
    p = order_value(p)
    tol = float(tol)
    diag: dict = {}
    # called positionally through the module global, which a caller may wrap
    ts = critical_thresholds(y, x, p, tol, diag)
    last = max(float(y.outcomes[-1]), float(x.outcomes[-1]))
    if diag["witness"] is not None:
        worst_t, worst_gap = diag["witness"]
        binding = "mean" if diag["lead"] == 1 else "tail"
    else:
        i = int(np.argmax(diag["gaps"]))
        worst_t, worst_gap = float(ts[i]), float(diag["gaps"][i])
        if p == 2.0 and worst_t >= last:
            # the order-2 gap past the last atom is mean(X) - mean(Y)
            binding = "mean"
        elif worst_t > last:
            binding = "tail"
        elif _is_atom(y, worst_t) or _is_atom(x, worst_t):
            binding = "atom"
        else:
            binding = "interior"
    return DominanceCertificate(
        dominates=bool(worst_gap <= tol),
        order=p,
        worst_t=worst_t,
        worst_gap=worst_gap,
        checked_points=int(ts.size),
        tolerance=tol,
        binding=binding,
        upper_bound=float(diag["upper_bound"]),
    )
