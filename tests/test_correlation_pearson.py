"""Unit tests for the Pearson estimator and its moment decomposition."""

import math

import numpy as np
import pytest

from repro.correlation.pearson import pearson

from sketch_join_oracle import pearson_moments


def test_perfect_positive():
    x = np.arange(10.0)
    assert pearson(x, 2 * x + 5) == pytest.approx(1.0)


def test_perfect_negative():
    x = np.arange(10.0)
    assert pearson(x, -3 * x) == pytest.approx(-1.0)


def test_matches_numpy_corrcoef():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(100)
        y = 0.3 * x + rng.standard_normal(100)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)


def test_symmetry():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(50)
    y = rng.standard_normal(50)
    assert pearson(x, y) == pytest.approx(pearson(y, x))


def test_shift_and_scale_invariance():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(80)
    y = rng.standard_normal(80)
    r = pearson(x, y)
    assert pearson(10 * x + 3, y) == pytest.approx(r, abs=1e-12)
    assert pearson(x, 0.01 * y - 7) == pytest.approx(r, abs=1e-12)


def test_sign_flip_on_negation():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(60)
    y = 0.5 * x + rng.standard_normal(60)
    assert pearson(x, -y) == pytest.approx(-pearson(x, y))


def test_too_small_sample_nan():
    assert math.isnan(pearson(np.array([1.0]), np.array([2.0])))
    assert math.isnan(pearson(np.array([]), np.array([])))


def test_constant_column_nan():
    assert math.isnan(pearson(np.ones(10), np.arange(10.0)))
    assert math.isnan(pearson(np.arange(10.0), np.full(10, 2.0)))


def test_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        pearson(np.ones(3), np.ones(4))


def test_result_clipped():
    # Near-collinear data can drift past 1 in floating point.
    x = np.array([1.0, 1.0 + 1e-15, 1.0 + 2e-15, 2.0])
    r = pearson(x, x)
    assert -1.0 <= r <= 1.0


class TestMoments:
    def test_moments_reconstruct_r(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 5, 200)
        y = rng.uniform(0, 5, 200)
        m = pearson_moments(x, y)
        num = m["nu_ab"] - m["mu_a"] * m["mu_b"]
        den = math.sqrt(m["nu_a"] - m["mu_a"] ** 2) * math.sqrt(
            m["nu_b"] - m["mu_b"] ** 2
        )
        assert num / den == pytest.approx(pearson(x, y), abs=1e-9)

    def test_empty_moments_nan(self):
        m = pearson_moments(np.array([]), np.array([]))
        assert m["n"] == 0
        assert math.isnan(m["mu_a"])

    def test_moment_values(self):
        m = pearson_moments(np.array([1.0, 3.0]), np.array([2.0, 4.0]))
        assert m == {
            "mu_a": 2.0,
            "mu_b": 3.0,
            "nu_a": 5.0,
            "nu_b": 10.0,
            "nu_ab": 7.0,
            "n": 2,
        }
