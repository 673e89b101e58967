"""Unit tests for the Section 4.3 Hoeffding confidence bounds.

The interval tests run the column kernels on a page of one sample; the
radii and the sign-aware quotient are the scalar oracle's
(``sketch_join_oracle``), which the kernels are held to in
``test_core_page_of_one.py``."""

import math

import numpy as np
import pytest

from repro.bounds.hoeffding import hfd_intervals, hoeffding_intervals
from repro.bounds.intervals import ConfidenceInterval
from repro.correlation.pearson import pearson

from sketch_join_oracle import _interval_quotient, hoeffding_radii, one_sample


def hoeffding_interval(x, y, c_low, c_high, alpha=0.05):
    return one_sample(hoeffding_intervals, x, y, c_low, c_high, alpha)


def hfd_interval(x, y, c_low, c_high, alpha=0.05):
    return one_sample(hfd_intervals, x, y, c_low, c_high, alpha)


def _population(n=100_000, rho=0.5, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    cov = [[1, rho], [rho, 1]]
    xy = rng.multivariate_normal([0, 0], cov, size=n) * scale
    return xy[:, 0], xy[:, 1]


class TestRadii:
    def test_formulas(self):
        t, tp = hoeffding_radii(100, 2.0, 0.05)
        log_term = math.log(10 / 0.05)
        assert t == pytest.approx(math.sqrt(log_term * 4 / 200))
        assert tp == pytest.approx(math.sqrt(log_term * 16 / 200))

    def test_shrink_with_n(self):
        t1, tp1 = hoeffding_radii(10, 1.0, 0.05)
        t2, tp2 = hoeffding_radii(1000, 1.0, 0.05)
        assert t2 < t1 and tp2 < tp1
        # 1/sqrt(n) scaling
        assert t1 / t2 == pytest.approx(math.sqrt(100))

    def test_grow_with_range(self):
        t1, tp1 = hoeffding_radii(100, 1.0, 0.05)
        t2, tp2 = hoeffding_radii(100, 2.0, 0.05)
        assert t2 == pytest.approx(2 * t1)
        assert tp2 == pytest.approx(4 * tp1)  # C^4 dependence

    def test_zero_n_infinite(self):
        assert hoeffding_radii(0, 1.0, 0.05) == (math.inf, math.inf)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            hoeffding_radii(10, 1.0, 0.0)
        with pytest.raises(ValueError):
            hoeffding_radii(10, 1.0, 1.0)


class TestIntervalQuotient:
    def test_positive_numerators(self):
        low, high = _interval_quotient(1.0, 2.0, 0.5, 1.0)
        assert low == 1.0  # num_low / den_high
        assert high == 4.0  # num_high / den_low

    def test_negative_numerators(self):
        low, high = _interval_quotient(-2.0, -1.0, 0.5, 1.0)
        assert low == -4.0  # num_low / den_low
        assert high == -1.0  # num_high / den_high

    def test_zero_denominator(self):
        low, high = _interval_quotient(-1.0, 1.0, 0.0, 0.0)
        assert low == -math.inf and high == math.inf

    def test_interval_property(self):
        # low <= high must hold for any sign combination.
        for nl, nh in [(-2, -1), (-1, 1), (1, 2)]:
            low, high = _interval_quotient(nl, nh, 0.3, 0.8)
            assert low <= high


class TestHoeffdingInterval:
    def test_vacuous_on_empty(self):
        ci = hoeffding_interval(np.array([]), np.array([]), 0.0, 1.0)
        assert (ci.low, ci.high) == (-1.0, 1.0)

    def test_vacuous_on_nan_bounds(self):
        ci = hoeffding_interval(np.ones(5), np.ones(5), math.nan, math.nan)
        assert (ci.low, ci.high) == (-1.0, 1.0)

    def test_vacuous_on_zero_range(self):
        ci = hoeffding_interval(np.ones(5), np.ones(5), 1.0, 1.0)
        assert (ci.low, ci.high) == (-1.0, 1.0)

    @pytest.mark.parametrize("scale", [1.4e154, 1e155, 1e300])
    def test_vacuous_when_range_squared_overflows(self, scale):
        """C² (the second moments' domain) beyond float64: the vacuous
        interval, not an OverflowError."""
        x, y = _population(n=100)
        x, y = x * scale, y * scale
        lo, hi = float(min(x.min(), y.min())), float(max(x.max(), y.max()))
        for interval in (hoeffding_interval, hfd_interval):
            ci = interval(x, y, lo, hi)
            assert (ci.low, ci.high) == (-1.0, 1.0), interval.__name__

    def test_vacuous_when_range_squared_underflows(self):
        """C² (and every variance bound) rounds to 0: the vacuous
        interval, not a division by zero."""
        x, y = _population(n=100)
        x, y = x * 1e-170, y * 1e-170
        lo, hi = float(min(x.min(), y.min())), float(max(x.max(), y.max()))
        for interval in (hoeffding_interval, hfd_interval):
            ci = interval(x, y, lo, hi)
            assert (ci.low, ci.high) == (-1.0, 1.0), interval.__name__

    def test_below_overflow_not_vacuous(self):
        x, y = _population(n=2000, rho=0.9)
        x, y = x * 1e150, y * 1e150
        lo, hi = float(min(x.min(), y.min())), float(max(x.max(), y.max()))
        ci = hfd_interval(x, y, lo, hi)
        assert ci.low <= pearson(x, y) <= ci.high
        assert (ci.low, ci.high) != (-1.0, 1.0)

    def test_clipped_to_correlation_space(self):
        x, y = _population(n=100)
        ci = hoeffding_interval(x[:50], y[:50], -4.0, 4.0)
        assert -1.0 <= ci.low <= ci.high <= 1.0

    def test_narrows_with_sample_size(self):
        """Bounded [0,1] data (C = 1): the interval must tighten with n.

        For wide-range data the C⁴ dependence keeps the strict bound
        vacuous at practical n — the small-sample weakness Section 4.3's
        HFD variant exists to address — so this test pins C to 1.
        """
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 200_000)
        y = np.clip(0.7 * x + 0.3 * rng.uniform(0, 1, 200_000), 0, 1)
        ci_small = hoeffding_interval(x[:1000], y[:1000], 0.0, 1.0)
        ci_large = hoeffding_interval(x[:100_000], y[:100_000], 0.0, 1.0)
        assert ci_large.length < ci_small.length
        assert ci_large.length < 2.0  # informative, not vacuous

    def test_contains_population_correlation_large_n(self):
        """At large n on bounded data the bound is a true CI."""
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, 300_000)
        y = np.clip(0.7 * x + 0.3 * rng.uniform(0, 1, 300_000), 0, 1)
        rho = pearson(x, y)
        ci = hoeffding_interval(x[:150_000], y[:150_000], 0.0, 1.0)
        assert ci.low <= rho <= ci.high
        assert ci.length < 2.0

    def test_vacuous_for_wide_range_small_n(self):
        """Standard-normal data, C ≈ 9, n = 256: the strict bound is
        expected to be vacuous (this is the paper's motivation for HFD)."""
        x, y = _population(n=5000)
        c_low = float(min(x.min(), y.min()))
        c_high = float(max(x.max(), y.max()))
        ci = hoeffding_interval(x[:256], y[:256], c_low, c_high)
        assert (ci.low, ci.high) == (-1.0, 1.0)

    def test_coverage_over_repeated_draws(self):
        """Empirical coverage must be at least nominal (bounds are
        conservative by construction). Bounded data keeps the interval
        informative so the check is not trivially satisfied."""
        rng = np.random.default_rng(1)
        n_pop = 50_000
        px = rng.uniform(0, 1, n_pop)
        py = np.clip(0.5 * px + 0.5 * rng.uniform(0, 1, n_pop), 0, 1)
        true_r = pearson(px, py)
        hits = 0
        informative = 0
        trials = 50
        for _ in range(trials):
            idx = rng.choice(n_pop, size=20_000, replace=False)
            ci = hoeffding_interval(px[idx], py[idx], 0.0, 1.0, alpha=0.05)
            if ci.length < 2.0:
                informative += 1
            if ci.low <= true_r <= ci.high:
                hits += 1
        assert hits == trials  # conservative bound: full coverage expected
        assert informative == trials


class TestHFDInterval:
    def test_contains_sample_estimate(self):
        x, y = _population(n=5000)
        sx, sy = x[:256], y[:256]
        r = pearson(sx, sy)
        ci = hfd_interval(sx, sy, float(min(x.min(), y.min())), float(max(x.max(), y.max())))
        assert ci.low <= r <= ci.high

    def test_informative_at_small_n_where_hoeffding_vacuous(self):
        x, y = _population(n=1000)
        c_low = float(min(x.min(), y.min()))
        c_high = float(max(x.max(), y.max()))
        strict = hoeffding_interval(x[:30], y[:30], c_low, c_high)
        hfd = hfd_interval(x[:30], y[:30], c_low, c_high)
        assert (strict.low, strict.high) == (-1.0, 1.0)
        assert math.isfinite(hfd.length)
        assert hfd.length != 2.0  # carries sample-size information

    def test_length_decreases_with_n(self):
        x, y = _population(n=100_000)
        c_low = float(min(x.min(), y.min()))
        c_high = float(max(x.max(), y.max()))
        lengths = [
            hfd_interval(x[:n], y[:n], c_low, c_high).length
            for n in (10, 100, 1000, 10_000)
        ]
        assert lengths == sorted(lengths, reverse=True)

    def test_vacuous_on_constant_sample(self):
        ci = hfd_interval(np.ones(10), np.ones(10), 0.0, 2.0)
        assert math.isfinite(ci.length)

    def test_not_clipped(self):
        """HFD endpoints may exceed ±1 — they are a dispersion measure."""
        x, y = _population(n=1000, scale=3.0)
        ci = hfd_interval(
            x[:20], y[:20], float(min(x.min(), y.min())), float(max(x.max(), y.max()))
        )
        assert ci.length > 2.0


class TestConfidenceIntervalType:
    def test_contains(self):
        ci = ConfidenceInterval(-0.2, 0.4, 0.05, "test")
        assert ci.contains(0.0)
        assert ci.contains(-0.2)
        assert not ci.contains(0.5)
        assert not ci.contains(math.nan)

    def test_length(self):
        assert ConfidenceInterval(-0.5, 0.5, 0.05, "t").length == 1.0

    def test_clipped(self):
        ci = ConfidenceInterval(-3.0, 2.0, 0.05, "t").clipped()
        assert (ci.low, ci.high) == (-1.0, 1.0)
