from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from stochdom import (
    DiscreteRandomVariable,
    DomainError,
    critical_thresholds,
    dominance_gap_at,
    lower_partial_moment,
    mean,
    verify,
)
from stochdom.dominance import _ROUND_POINTS, _ROUNDING, _Shortfall
from tests.conftest import random_variable
from tests.oracles import (
    dense_grid_gap_max,
    gap_direct,
    gap_exact,
    lpm_direct,
    order2_supremum_exact,
    tail_gap_max,
)


def fat_tailed(rng: np.random.Generator, n: int, shift: float = 0.0) -> DiscreteRandomVariable:
    """n percent returns with Student-t tails and uneven probabilities."""
    return DiscreteRandomVariable(shift + 0.04 + 0.9 * rng.standard_t(5, n),
                                  rng.dirichlet(np.full(n, 4.0)))


def mean_preserving_spread(rng: np.random.Generator, v: DiscreteRandomVariable) -> DiscreteRandomVariable:
    """Each atom z splits into z - a and z + b with E[new | z] = z."""
    z, p = v.outcomes, v.probabilities
    a = rng.uniform(0.05, 0.4, z.size)
    b = rng.uniform(0.05, 0.4, z.size)
    return DiscreteRandomVariable(np.concatenate([z - a, z + b]),
                                  np.concatenate([p * b / (a + b), p * a / (a + b)]))


def spread_pair(seed: int, dominates: bool = True):
    """fat_tailed(rng, 500) and its mean-preserving spread, 1500 merged atoms; the dominating side first."""
    rng = np.random.default_rng(seed)
    base = fat_tailed(rng, 500)
    spread = mean_preserving_spread(rng, base)
    return (base, spread) if dominates else (spread, base)


@pytest.fixture(scope="module")
def large_pair():
    """Two independent 10^4-atom samples, Y shifted up by a tenth of a percent."""
    rng = np.random.default_rng(2003)
    return fat_tailed(rng, 10_000, shift=0.1), fat_tailed(rng, 10_000)


class TestLowerPartialMoment:
    def test_two_atom_example(self):
        v = DiscreteRandomVariable([2.0, 4.0], [0.5, 0.5])
        assert lower_partial_moment(v, 4.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_zero_below_support(self):
        v = DiscreteRandomVariable([1.0, 2.0, 5.0], [0.3, 0.3, 0.4])
        assert lower_partial_moment(v, 1.0, 1.5) == 0.0

    def test_single_atom_fractional_exponent(self):
        v = DiscreteRandomVariable([0.0], [1.0])
        expected = math.exp(3.7 * math.log(2.0))
        assert lower_partial_moment(v, 2.0, 3.7) == pytest.approx(expected, rel=1e-14)

    def test_k_zero_is_strict_cdf(self):
        v = DiscreteRandomVariable([1.0, 2.0], [0.4, 0.6])
        assert lower_partial_moment(v, 2.0, 0.0) == pytest.approx(0.4)
        assert lower_partial_moment(v, 2.0 + 1e-12, 0.0) == pytest.approx(1.0)

    def test_rejects_negative_k(self):
        v = DiscreteRandomVariable([1.0], [1.0])
        with pytest.raises(DomainError):
            lower_partial_moment(v, 1.0, -0.5)

    def test_rejects_nonfinite_t(self):
        v = DiscreteRandomVariable([1.0], [1.0])
        with pytest.raises(DomainError):
            lower_partial_moment(v, np.inf, 1.0)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = random_variable(rng)
            t = float(rng.normal(0, 3))
            k = float(rng.choice([0.0, 0.5, 1.0, 1.7, 2.0, 3.0]))
            expected = lpm_direct(v.outcomes, v.probabilities, t, k)
            assert lower_partial_moment(v, t, k) == pytest.approx(expected, abs=1e-12, rel=1e-12)

    def test_nondecreasing_and_convex_in_t(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = random_variable(rng)
            k = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            ts = np.sort(rng.normal(0, 3, 9))
            vals = [lower_partial_moment(v, t, k) for t in ts]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            h = 1e-3
            for t in ts:
                mid = lower_partial_moment(v, t, k)
                second = (
                    lower_partial_moment(v, t - h, k)
                    - 2 * mid
                    + lower_partial_moment(v, t + h, k)
                )
                assert second >= -1e-9


class TestSortedSweep:
    """The sweep evaluator against per-atom summation, and its cost."""

    @pytest.fixture(scope="class")
    def sample(self):
        v = fat_tailed(np.random.default_rng(17), 10_000)
        z = v.outcomes
        lo, hi = float(z[0]), float(z[-1])
        at = z[::500]
        ts = np.concatenate([
            at,                                   # strictly excludes the atom itself
            np.nextafter(at, np.inf),             # includes it at a distance of one ulp
            at + 1e-3,
            [lo - 1.0, lo - (hi - lo)],           # below the support
            [hi, hi + 10.0 * (hi - lo)],          # last atom and 10 support widths past it
        ])
        return v, ts

    @pytest.mark.parametrize("k", [0.0, 1.0, 2.0, 3.0, 4.0, 0.5, 1.5, 2.7, 3.7])
    def test_matches_direct_sum_on_ten_thousand_atoms(self, sample, k):
        v, ts = sample
        got = _Shortfall(k, v)(ts)
        for t, g in zip(ts, got):
            assert g == pytest.approx(lpm_direct(v.outcomes, v.probabilities, t, k), rel=1e-12, abs=0.0)

    def test_order_zero_is_the_strict_cdf(self, sample):
        v, _ = sample
        cdf = _Shortfall(0.0, v)(v.outcomes)
        assert cdf[0] == 0.0
        assert np.array_equal(cdf[1:], _Shortfall(0.0, v)(np.nextafter(v.outcomes[:-1], np.inf)))
        assert cdf[1:] == pytest.approx(np.cumsum(v.probabilities)[:-1], rel=1e-12)

    def test_thresholds_in_any_order(self, sample):
        v, ts = sample
        perm = np.random.default_rng(0).permutation(ts.size)
        for k in (2.0, 2.7):
            f = _Shortfall(k, v)
            assert np.array_equal(f(ts[perm]), f(ts)[perm])

    def test_order_two_large_pair_matches_exact_supremum(self, large_pair):
        y, x = large_pair
        cert = verify(y, x, 2.0)
        sup = order2_supremum_exact(y.outcomes, y.probabilities, x.outcomes, x.probabilities)
        assert cert.worst_gap == pytest.approx(sup, rel=1e-12, abs=1e-15)
        assert cert.dominates == (sup <= cert.tolerance)

    def test_order_two_large_pair_memory(self, large_pair):
        y, x = large_pair
        tracemalloc.start()
        try:
            verify(y, x, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("p", [3.0, 4.0])
    @pytest.mark.parametrize("pair", ["seeded", "dyadic"])
    def test_tail_stationary_points_bounded_by_degree(self, p, pair):
        # beyond the last atom the gap derivative is a polynomial of
        # degree p - 2, so the set holds at most p - 2 of its zeros there,
        # next to the window end 10 support widths out
        if pair == "seeded":
            rng = np.random.default_rng(int(p))
            x = fat_tailed(rng, 700)
            # shifted up, so the tail gap rises and then falls
            spread = mean_preserving_spread(rng, x)
            y = DiscreteRandomVariable(spread.outcomes + 0.002, spread.probabilities)
        else:
            # exact arithmetic: at p = 3 the tail derivative is exactly zero
            x = DiscreteRandomVariable([0.0], [1.0])
            y = DiscreteRandomVariable([-1.0, 1.0], [0.5, 0.5])
        ts = critical_thresholds(y, x, p)
        atoms = np.union1d(y.outcomes, x.outcomes)
        lo, hi = float(atoms[0]), float(atoms[-1])
        window_end = hi + 10.0 * (hi - lo)
        assert window_end in ts
        tail_roots = ts[(ts > hi) & (ts != window_end)]
        assert tail_roots.size <= p - 2
        if pair == "seeded" and p == 4.0:
            # the zero of 3 (2 dM1 d + dM2): dM1 = mean(X) - mean(Y) < 0, dM2 > 0
            assert tail_roots.size == 1
            near = tail_roots[0] * (1.0 + np.array([-1e-6, 0.0, 1e-6]))
            gaps = [dominance_gap_at(y, x, p, float(t)) for t in near]
            assert gaps[1] >= max(gaps[0], gaps[2])


class TestDominanceGap:
    def test_identity_is_zero(self, golden_y):
        for p in (1.0, 2.0, 3.3):
            for t in (-1.0, 5.0, 20.0):
                assert dominance_gap_at(golden_y, golden_y, p, t) == 0.0

    def test_golden_pair_at_low_threshold(self, golden_y, golden_x):
        assert dominance_gap_at(golden_y, golden_x, 2.0, 2.0) == 0.0

    def test_golden_pair_at_top_threshold(self, golden_y, golden_x):
        expected = gap_direct(
            golden_y.outcomes, golden_y.probabilities,
            golden_x.outcomes, golden_x.probabilities, 2.0, 11.0,
        )
        got = dominance_gap_at(golden_y, golden_x, 2.0, 11.0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got <= 0.0

    def test_rejects_order_below_one(self, golden_y, golden_x):
        with pytest.raises(DomainError):
            dominance_gap_at(golden_y, golden_x, 0.5, 1.0)


class TestCriticalThresholds:
    def test_order_two_atoms_plus_window_end(self, golden_y, golden_x):
        # the order-2 gap is linear between atoms and constant past the
        # last one: the atoms and the window end are the whole set
        ts = critical_thresholds(golden_y, golden_x, 2.0)
        assert ts.tolist() == [*range(2, 12), 11.0 + 10.0 * (11.0 - 2.0)]

    @pytest.mark.parametrize("p", [1.5, 3.5, 4.7])
    def test_fractional_small_input_holds_every_atom(self, golden_y, golden_x, p):
        # up to _ROUND_POINTS merged atoms the branch and bound starts from all of them
        atoms = np.union1d(golden_y.outcomes, golden_x.outcomes)
        assert atoms.size <= _ROUND_POINTS
        assert np.isin(atoms, critical_thresholds(golden_y, golden_x, p)).all()

    def test_identity_gap_vanishes_everywhere(self, golden_y):
        ts = critical_thresholds(golden_y, golden_y, 3.0)
        for t in ts:
            assert dominance_gap_at(golden_y, golden_y, 3.0, t) == 0.0

    def test_ascending_and_finite(self, golden_y, golden_x):
        cases = [(golden_y, golden_x, p) for p in (1.0, 1.5, 2.0, 3.0, 4.7)]
        # above _ROUND_POINTS atoms the knots are merged round by round
        cases += [(*spread_pair(35, dominates), p) for p in (3.5, 4.7) for dominates in (True, False)]
        for y, x, p in cases:
            ts = critical_thresholds(y, x, p)
            assert np.all(np.isfinite(ts))
            assert np.all(np.diff(ts) > 0)

    def test_order_four_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            y = random_variable(rng, max_atoms=5)
            x = random_variable(rng, max_atoms=5)
            ts = critical_thresholds(y, x, 4.0)
            crit = max(dominance_gap_at(y, x, 4.0, float(t)) for t in ts)
            grid = dense_grid_gap_max(
                y.outcomes, y.probabilities, x.outcomes, x.probabilities, 4.0,
                n_points=10**5,
            )
            assert crit == pytest.approx(grid, abs=max(1e-9, 1e-12 * abs(grid)))

    def test_diagnostics_channel(self, golden_y, golden_x):
        for p, fractional in ((3.0, False), (3.5, True)):
            diag: dict = {}
            ts = critical_thresholds(golden_y, golden_x, p, diagnostics=diag)
            assert set(diag) == {"gaps", "upper_bound", "lead", "evaluations"}
            assert diag["gaps"] == pytest.approx([dominance_gap_at(golden_y, golden_x, p, t) for t in ts],
                                                 rel=1e-12, abs=1e-12)
            assert diag["lead"] == 1             # mean(Y) > mean(X) sends the tail gap down
            assert diag["upper_bound"] >= diag["gaps"].max()
            assert (diag["evaluations"] > 0) == fractional
        # 1500 merged atoms: each gap must stay with its threshold through the merges
        for p in (3.5, 4.7):
            for dominates in (True, False):
                y, x = spread_pair(35, dominates)
                diag = {}
                ts = critical_thresholds(y, x, p, diagnostics=diag)
                assert np.all(np.diff(ts) > 0)
                ref = _Shortfall(p - 1.0, y, x)(ts)
                # far past the atoms a gap is the difference of two moments near 1e7
                rounding = _ROUNDING * (_Shortfall(p - 1.0, y)(ts) + _Shortfall(p - 1.0, x)(ts))
                assert np.all(np.abs(diag["gaps"] - ref) <= 1e-12 * np.abs(ref) + rounding)
                assert diag["upper_bound"] >= diag["gaps"].max()
                assert diag["evaluations"] > 0


class TestVerify:
    def test_golden_pair_order_two(self, golden_y, golden_x):
        cert = verify(golden_y, golden_x, 2.0)
        assert cert.dominates
        assert cert.worst_gap <= cert.tolerance
        assert cert.checked_points > 0

    def test_self_dominance(self):
        rng = np.random.default_rng(21)
        for p in (2.0, 3.0, 4.7):
            z = random_variable(rng)
            cert = verify(z, z, p)
            assert cert.dominates
            assert cert.worst_gap == 0.0

    def test_swapped_golden_pair_fails_mean_condition(self, golden_y, golden_x):
        assert mean(golden_x) == pytest.approx(5.8, abs=1e-12)
        assert mean(golden_y) == pytest.approx(6.7, abs=1e-12)
        cert = verify(golden_x, golden_y, 2.0)
        assert not cert.dominates
        # the tail gap of an order-2 pair is exactly the mean difference
        assert cert.worst_gap == pytest.approx(mean(golden_y) - mean(golden_x), abs=1e-9)

    def test_certificate_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            y, x = random_variable(rng), random_variable(rng)
            p = float(rng.choice([1.0, 2.0, 2.5, 3.0, 4.7]))
            cert = verify(y, x, p)
            assert cert.dominates == (cert.upper_bound < math.inf and cert.worst_gap <= cert.tolerance)

    def test_affine_invariance_of_verdict(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            y, x = random_variable(rng), random_variable(rng)
            p = float(rng.choice([2.0, 3.0, 2.5]))
            a = float(rng.uniform(0.5, 3.0))
            b = float(rng.normal(0, 2.0))
            ya = DiscreteRandomVariable(a * y.outcomes + b, y.probabilities)
            xa = DiscreteRandomVariable(a * x.outcomes + b, x.probabilities)
            assert verify(y, x, p).dominates == verify(ya, xa, p).dominates

    def test_affine_map_of_worst_point_on_dominated_pair(self, golden_y, golden_x):
        # scale a strictly violated pair and track the argmax and gap scaling
        p = 2.0
        cert = verify(golden_x, golden_y, p)
        a, b = 2.0, 1.0
        xa = DiscreteRandomVariable(a * golden_x.outcomes + b, golden_x.probabilities)
        ya = DiscreteRandomVariable(a * golden_y.outcomes + b, golden_y.probabilities)
        cert_a = verify(xa, ya, p)
        assert cert_a.worst_gap == pytest.approx(a ** (p - 1.0) * cert.worst_gap, rel=1e-9)

    def test_symmetric_consistency(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            y = random_variable(rng)
            if rng.random() < 0.3:
                x = DiscreteRandomVariable(y.outcomes.copy(), y.probabilities.copy())
            else:
                x = random_variable(rng)
            p = float(rng.choice([2.0, 3.0]))
            both = verify(y, x, p).dominates and verify(x, y, p).dominates
            if both:
                assert y.n_atoms == x.n_atoms
                assert np.allclose(y.outcomes, x.outcomes, atol=1e-9)
                assert np.allclose(y.probabilities, x.probabilities, atol=1e-9)

    def test_integer_order_monotonicity(self):
        rng = np.random.default_rng(61)
        checked = 0
        for _ in range(60):
            x = random_variable(rng)
            shift = float(rng.uniform(0.0, 1.0))
            y = DiscreteRandomVariable(x.outcomes + shift, x.probabilities)
            for p in (2.0, 3.0):
                if verify(y, x, p).dominates:
                    assert verify(y, x, p + 1.0).dominates
                    checked += 1
        assert checked > 20

    def test_fractional_order_monotonicity_reported(self, capsys):
        # empirical probe only: dominance at p is compared against p + 0.7
        # and summarized, never asserted
        rng = np.random.default_rng(71)
        agree = holds = 0
        for _ in range(40):
            x = random_variable(rng)
            y = DiscreteRandomVariable(x.outcomes + float(rng.uniform(0, 0.5)), x.probabilities)
            p = float(rng.uniform(2.0, 4.0))
            if verify(y, x, p).dominates:
                holds += 1
                if verify(y, x, p + 0.7).dominates:
                    agree += 1
        print(f"fractional-order monotonicity: {agree}/{holds} dominant pairs stayed dominant at p+0.7")

    def test_invalid_order_and_tolerance(self, golden_y, golden_x):
        with pytest.raises(DomainError):
            verify(golden_y, golden_x, 0.0)
        # one check guards both entry points
        for tol in (-1e-9, -1.0, math.nan, math.inf):
            for check in (verify, critical_thresholds):
                with pytest.raises(DomainError):
                    check(golden_y, golden_x, 3.0, tol)

    def test_first_order_verification(self):
        # step-function CDF comparison at atoms and midpoints
        lo = DiscreteRandomVariable([0.0, 1.0], [0.5, 0.5])
        hi = DiscreteRandomVariable([0.5, 2.0], [0.5, 0.5])
        assert not verify(lo, hi, 1.0).dominates
        shifted = DiscreteRandomVariable([0.6, 1.6], [0.5, 0.5])
        assert verify(shifted, lo, 1.0).dominates

    def test_brute_force_equivalence_small(self):
        rng = np.random.default_rng(81)
        for _ in range(25):
            y = random_variable(rng)
            xr = random_variable(rng)
            # keep means ordered so the tail gap stays bounded
            delta = mean(xr) - mean(y)
            x = DiscreteRandomVariable(xr.outcomes - max(delta, 0.0), xr.probabilities)
            p = float(rng.choice([2.0, 2.5, 3.0, 4.0, 4.7]))
            ts = critical_thresholds(y, x, p)
            crit = max(dominance_gap_at(y, x, p, float(t)) for t in ts)
            grid = dense_grid_gap_max(
                y.outcomes, y.probabilities, x.outcomes, x.probabilities, p,
                n_points=10**5,
            )
            assert crit == pytest.approx(grid, abs=1e-9)


def benchmark_spread_fails(seed: int, stream: int):
    """A `p<order>-spread-fails` pair of the benchmark (perfbench/inputs.py), rebuilt from its seed.

    X has 700 fat-tailed atoms; Y splits each atom z into z - a and
    z + b, E[new | z] = z, with a and b scaled by the spread of X.
    """
    rng = np.random.default_rng([seed, stream])
    fat_tailed(rng, 1000)                 # the dominating pair drawn first from the same stream
    z = 0.04 + 0.9 * rng.standard_t(5, 700)
    p = rng.dirichlet(np.full(700, 4.0))
    scale = float(np.std(z))
    a = rng.uniform(0.05, 0.4, z.size) * scale
    b = rng.uniform(0.05, 0.4, z.size) * scale
    y = DiscreteRandomVariable(np.concatenate([z - a, z + b]),
                               np.concatenate([p * b / (a + b), p * a / (a + b)]))
    return y, DiscreteRandomVariable(z, p)


def grid_and_tail_verdict(y, x, p, tol):
    """Dominance as the oracles see it: dense grid over the window, then the tail series to 10^4 widths."""
    args = (y.outcomes, y.probabilities, x.outcomes, x.probabilities, p)
    grid = dense_grid_gap_max(*args, n_points=10**5)
    return grid, max(grid, tail_gap_max(*args)) <= tol


class TestCertifiedSupremum:
    """verify bounds the gap over every threshold, tail included."""

    def test_tail_reproducer(self):
        # equal means, but dM2 = 1e-3: the order-4 tail gap is 3 t dM2 - dM3
        y = DiscreteRandomVariable([-0.1001, 10.0], [10.0 / 10.1001, 0.1001 / 10.1001])
        x = DiscreteRandomVariable([-1.0, 1.0], [0.5, 0.5])
        cert = verify(y, x, 4)
        assert not cert.dominates
        assert cert.binding == "tail"
        assert cert.upper_bound == math.inf
        # the largest gap in the window, which ends 10 support widths past the last atom
        assert cert.worst_t <= 10.0 + 10.0 * (10.0 + 1.0)
        exact = float(gap_exact(y.outcomes, y.probabilities, x.outcomes, x.probabilities, 4.0, cert.worst_t))
        assert cert.worst_gap == pytest.approx(exact, rel=1e-12)
        # the gap turns positive only past the window (+5.09 at t = 5000):
        # the unbounded tail alone decides
        assert cert.worst_gap <= cert.tolerance

    @pytest.mark.parametrize("outcomes, eps, p", [
        ([-1.0, 1.1], 1e-7, 4.0),
        ([-1.0, 1.1], 3e-7, 3.5),
        ([-0.01, 0.01], 3e-8, 3.001),
        ([-1.0, 1.0], 3e-8, 3.001),     # the same pair in units 100 times larger
    ])
    def test_unbounded_tail_never_dominates(self, outcomes, eps, p):
        # Y = (1 + eps) X: the gap grows without bound, yet a direct sum far
        # past the atoms cancels to 0.0 or to a huge value of either sign
        x = DiscreteRandomVariable(outcomes, [0.5, 0.5])
        y = DiscreteRandomVariable((1.0 + eps) * x.outcomes, x.probabilities)
        cert = verify(y, x, p)
        assert not cert.dominates
        assert cert.upper_bound == math.inf
        atoms = np.union1d(y.outcomes, x.outcomes)
        assert cert.worst_t <= atoms[-1] + 10.0 * (atoms[-1] - atoms[0])
        t = np.array([cert.worst_t])
        ref = _Shortfall(p - 1.0, y, x)(t)[0]
        rounding = _ROUNDING * (_Shortfall(p - 1.0, y)(t)[0] + _Shortfall(p - 1.0, x)(t)[0])
        assert abs(cert.worst_gap - ref) <= 1e-12 * abs(ref) + rounding

    def test_exact_tail_coefficients(self):
        # the benchmark's seed-1 order-4 spread pair, 10 support widths past
        # its last atom: 26.959677005421790 in 60-digit arithmetic
        y, x = benchmark_spread_fails(seed=1, stream=12)
        atoms = np.union1d(y.outcomes, x.outcomes)
        t = float(atoms[-1] + 10.0 * (atoms[-1] - atoms[0]))
        assert t == pytest.approx(128.33596635661345, rel=1e-15)
        exact = float(gap_exact(y.outcomes, y.probabilities, x.outcomes, x.probabilities, 4.0, t))
        assert exact == pytest.approx(26.959677005421790, rel=1e-15)
        assert _Shortfall(3.0, y, x)(np.array([t]))[0] == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [1.5, 2.5, 3.3, 4.7])
    def test_soundness_sweep(self, p):
        rng = np.random.default_rng(int(10 * p))
        verdicts = set()
        for trial in range(16):
            x = random_variable(rng, scale=0.5)
            kind = trial % 4
            if kind == 0:
                y = DiscreteRandomVariable(x.outcomes + float(rng.uniform(0.0, 0.3)), x.probabilities)
            elif kind == 3:
                # riskier at the same mean: fails at every order
                y = mean_preserving_spread(rng, x)
            else:
                y = random_variable(rng, scale=0.5)
                if kind == 1:
                    # ordered means, as in the acceptance suite's criterion 5
                    delta = mean(x) - mean(y)
                    x = DiscreteRandomVariable(x.outcomes - max(delta, 0.0), x.probabilities)
            cert = verify(y, x, p)
            grid, dominates = grid_and_tail_verdict(y, x, p, cert.tolerance)
            assert cert.upper_bound >= grid - 1e-12 * max(1.0, abs(grid))
            assert cert.upper_bound >= cert.worst_gap
            assert cert.worst_gap >= grid - 1e-9 * max(1.0, abs(grid))
            assert cert.dominates == dominates
            verdicts.add(cert.dominates)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("p", [2.5, 3.5, 4.7])
    @pytest.mark.parametrize("direction", ["dominates", "fails"])
    def test_soundness_above_round_points(self, p, direction):
        # 1500 merged atoms: the branch and bound starts from every sixth
        # atom and closes segments that hold atoms it never evaluates
        y, x = spread_pair(int(10 * p), direction == "dominates")
        atoms = np.union1d(y.outcomes, x.outcomes)
        assert atoms.size > _ROUND_POINTS
        cert = verify(y, x, p)
        top = float(_Shortfall(p - 1.0, y, x)(atoms).max())
        # a segment closes once its bound is within the slack of the best
        # gap; the rounding part grows with the moments, largest at the last atom
        rounding = _ROUNDING * (lower_partial_moment(y, atoms[-1], p - 1.0)
                                + lower_partial_moment(x, atoms[-1], p - 1.0))
        assert top <= cert.upper_bound
        assert top <= cert.worst_gap + 1e-10 * max(1.0, abs(cert.worst_gap)) + rounding
        assert cert.dominates == grid_and_tail_verdict(y, x, p, cert.tolerance)[1]

    @pytest.mark.parametrize("direction", ["dominates", "fails"])
    def test_work_count_guard(self, direction):
        # thresholds passed to the fractional evaluator, not seconds
        y, x = spread_pair(47, direction == "dominates")
        diag: dict = {}
        critical_thresholds(y, x, 4.7, 1e-8, diag)
        merged = np.union1d(y.outcomes, x.outcomes).size
        assert merged >= 1000
        assert diag["evaluations"] <= merged // 2
        assert verify(y, x, 4.7).dominates == (direction == "dominates")

    @pytest.mark.parametrize("p", [1.5, 2.5, 3.5, 4.7])
    @pytest.mark.parametrize("direction", ["dominates", "fails"])
    def test_upper_bound_sound_when_budget_runs_out(self, monkeypatch, p, direction):
        # no evaluation past the starting knots: the search stops with segments open
        monkeypatch.setattr("stochdom.dominance._EVALUATIONS", 0)
        monkeypatch.setattr("stochdom.dominance._BASE_EVALUATIONS", 0)
        y, x = spread_pair(int(10 * p), direction == "dominates")
        diag: dict = {}
        critical_thresholds(y, x, p, 1e-8, diag)
        atoms = np.union1d(y.outcomes, x.outcomes)
        top = float(_Shortfall(p - 1.0, y, x)(atoms).max())
        grid = grid_and_tail_verdict(y, x, p, 1e-8)[0]
        assert diag["upper_bound"] >= max(top, grid)

    @pytest.mark.parametrize("p", [2.5, 4.7])
    @pytest.mark.parametrize("span", [1e8, 1e12])
    def test_wide_support_does_not_overflow(self, p, span):
        # tol span^j passes the largest float within the 40 series terms
        x = DiscreteRandomVariable([0.0, span], [0.5, 0.5])
        cert = verify(x, x, p)
        assert cert.dominates and cert.upper_bound == 0.0

    def test_verdict_is_scale_covariant(self):
        # Y -> sY multiplies the order-p gap by s^(p - 1)
        rng = np.random.default_rng(50)
        base = fat_tailed(rng, 50)
        spread = mean_preserving_spread(rng, base)
        for y, x in ((base, spread), (spread, base), (base, base)):
            for p in (1.5, 2.5, 3.5, 4.7, 5.5, 6.5, 3.0, 6.0):
                ref = verify(y, x, p)
                for s in (1e4, 1e8, 1e12):
                    cert = verify(DiscreteRandomVariable(s * y.outcomes, y.probabilities),
                                  DiscreteRandomVariable(s * x.outcomes, x.probabilities),
                                  p, 1e-8 * s ** (p - 1.0))
                    assert (cert.dominates, cert.binding) == (ref.dominates, ref.binding)
                    assert not math.isnan(cert.upper_bound)

    def test_binding(self, golden_y, golden_x):
        # mean(golden_x) < mean(golden_y): at order 2 the gap past the last
        # atom is the mean deficit, at order 3 it grows without bound
        for p in (2.0, 3.0, 3.5):
            cert = verify(golden_x, golden_y, p)
            assert cert.binding == "mean"
            assert cert.upper_bound == (pytest.approx(0.9) if p == 2.0 else math.inf)
        cert = verify(golden_y, golden_x, 2.0)
        assert cert.dominates and cert.binding == "atom"
        # a violation between atoms, where the gap peaks near t = 1.537
        y = DiscreteRandomVariable([0.1, 3.0], [0.4, 0.6])
        x = DiscreteRandomVariable([0.7, 2.0], [0.9, 0.1])
        cert = verify(y, x, 3.5)
        assert cert.binding == "interior"
        assert 0.7 < cert.worst_t < 2.0
        assert cert.worst_gap <= cert.upper_bound <= cert.worst_gap + 1e-10
