"""Unit tests for the high-level estimate() pipeline."""

import math

import numpy as np
import pytest

from repro.core.estimation import RANGE_PRESERVING_AGGREGATES, estimate
from repro.core.sketch import CorrelationSketch


def _correlated_sketches(n_rows=5000, rho=0.8, sketch_size=256, seed=0, aggregate="mean"):
    rng = np.random.default_rng(seed)
    keys = [f"k{i}" for i in range(n_rows)]
    x = rng.standard_normal(n_rows)
    y = rho * x + math.sqrt(1 - rho**2) * rng.standard_normal(n_rows)
    left = CorrelationSketch.from_columns(keys, x, sketch_size, aggregate=aggregate)
    right = CorrelationSketch.from_columns(keys, y, sketch_size, aggregate=aggregate)
    return left, right


def test_estimate_close_to_population_correlation():
    left, right = _correlated_sketches(rho=0.8)
    result = estimate(left, right)
    assert result.sample_size == 256
    assert abs(result.correlation - 0.8) < 0.15


def test_estimator_selection():
    left, right = _correlated_sketches(rho=0.9)
    r_p = estimate(left, right, estimator="pearson").correlation
    r_s = estimate(left, right, estimator="spearman").correlation
    assert abs(r_p - r_s) < 0.2  # both near 0.9, different transforms


def test_unknown_estimator():
    left, right = _correlated_sketches(n_rows=100, sketch_size=16)
    with pytest.raises(ValueError, match="unknown correlation estimator"):
        estimate(left, right, estimator="kendall")


def test_fisher_se_matches_sample_size():
    left, right = _correlated_sketches()
    result = estimate(left, right)
    assert result.fisher_se == pytest.approx(1 / math.sqrt(256 - 3))


def test_hoeffding_interval_is_interval():
    left, right = _correlated_sketches()
    result = estimate(left, right)
    assert result.hoeffding.low <= result.hoeffding.high
    assert -1.0 <= result.hoeffding.low
    assert result.hoeffding.high <= 1.0


@pytest.mark.parametrize("scale", [1e155, 1e300])
def test_estimate_on_huge_finite_values_does_not_overflow(scale):
    """Values whose range squared overflows float64 get the vacuous
    Hoeffding/HFD intervals, and every field stays strict-JSON encodable."""
    rng = np.random.default_rng(3)
    keys = [f"k{i}" for i in range(400)]
    x = rng.standard_normal(400)
    y = 0.8 * x + 0.6 * rng.standard_normal(400)
    left = CorrelationSketch.from_columns(keys, x * scale, 64)
    right = CorrelationSketch.from_columns(keys, y * scale, 64, hasher=left.hasher)
    result = estimate(left, right)
    assert result.sample_size == 64
    assert (result.hoeffding.low, result.hoeffding.high) == (-1.0, 1.0)
    assert (result.hfd.low, result.hfd.high) == (-1.0, 1.0)


def test_hfd_interval_contains_estimate():
    left, right = _correlated_sketches()
    result = estimate(left, right)
    assert result.hfd.low <= result.correlation <= result.hfd.high


def test_join_size_and_containment_estimates():
    left, right = _correlated_sketches(n_rows=20_000, sketch_size=512)
    result = estimate(left, right)
    assert abs(result.join_size_est - 20_000) / 20_000 < 0.2
    assert result.containment_est == pytest.approx(1.0, abs=0.05)


def test_empty_overlap():
    a = CorrelationSketch.from_columns([f"a{i}" for i in range(50)], np.ones(50), 16)
    b = CorrelationSketch.from_columns([f"b{i}" for i in range(50)], np.ones(50), 16)
    result = estimate(a, b)
    assert result.sample_size == 0
    assert math.isnan(result.correlation)
    assert result.containment_est == 0.0
    assert result.join_size_est == 0.0
    # Vacuous but valid interval.
    assert (result.hoeffding.low, result.hoeffding.high) == (-1.0, 1.0)


def test_range_preserving_flag():
    left, right = _correlated_sketches(n_rows=200, sketch_size=64)
    assert estimate(left, right).range_bounds_valid
    left_s, right_s = _correlated_sketches(n_rows=200, sketch_size=64, aggregate="sum")
    assert not estimate(left_s, right_s).range_bounds_valid


def test_range_preserving_set_contents():
    assert "mean" in RANGE_PRESERVING_AGGREGATES
    assert "sum" not in RANGE_PRESERVING_AGGREGATES
    assert "count" not in RANGE_PRESERVING_AGGREGATES


def test_small_exact_join_size():
    a = CorrelationSketch.from_columns(["a", "b", "c"], [1.0, 2.0, 3.0], 16)
    b = CorrelationSketch.from_columns(["b", "c", "d"], [1.0, 2.0, 3.0], 16)
    result = estimate(a, b)
    assert result.join_size_est == 2.0
    assert result.containment_est == pytest.approx(2 / 3)


def test_key_overlap_counts_nan_value_keys():
    a = CorrelationSketch.from_columns(["a", "b"], [math.nan, 1.0], 8)
    b = CorrelationSketch.from_columns(["a", "b"], [2.0, 3.0], 8)
    result = estimate(a, b)
    assert result.key_overlap == 2
    assert result.sample_size == 1
