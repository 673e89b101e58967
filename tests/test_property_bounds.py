"""Property-based tests for confidence-bound invariants."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.bounds.hoeffding import hfd_intervals, hoeffding_intervals
from repro.correlation.fisher import fisher_interval
from repro.correlation.pearson import pearson

from sketch_join_oracle import hoeffding_radii, one_sample


def hoeffding_interval(x, y, c_low, c_high, alpha=0.05):
    """The column kernel on a page of one sample."""
    return one_sample(hoeffding_intervals, x, y, c_low, c_high, alpha)


def hfd_interval(x, y, c_low, c_high, alpha=0.05):
    return one_sample(hfd_intervals, x, y, c_low, c_high, alpha)

bounded_floats = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
paired_arrays = st.integers(min_value=2, max_value=80).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, n, elements=bounded_floats),
        arrays(np.float64, n, elements=bounded_floats),
    )
)


@given(xy=paired_arrays, alpha=st.sampled_from([0.01, 0.05, 0.1]))
@settings(max_examples=80, deadline=None)
def test_hoeffding_interval_well_formed(xy, alpha):
    x, y = xy
    ci = hoeffding_interval(x, y, 0.0, 10.0, alpha)
    assert ci.low <= ci.high
    assert -1.0 <= ci.low and ci.high <= 1.0


@given(xy=paired_arrays)
@settings(max_examples=80, deadline=None)
def test_hoeffding_contains_sample_estimate(xy):
    """The strict interval must always contain the point estimate computed
    from the very sample it was built on."""
    x, y = xy
    r = pearson(x, y)
    if math.isnan(r):
        return
    ci = hoeffding_interval(x, y, 0.0, 10.0, 0.05)
    assert ci.low - 1e-9 <= r <= ci.high + 1e-9


@given(xy=paired_arrays)
@settings(max_examples=80, deadline=None)
def test_hfd_contains_sample_estimate(xy):
    x, y = xy
    r = pearson(x, y)
    if math.isnan(r):
        return
    ci = hfd_interval(x, y, 0.0, 10.0, 0.05)
    assert ci.low - 1e-9 <= r <= ci.high + 1e-9


@given(
    n=st.integers(min_value=1, max_value=10_000),
    c=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    alpha=st.floats(min_value=1e-4, max_value=0.5),
)
@settings(max_examples=100, deadline=None)
def test_radii_positive_and_ordered(n, c, alpha):
    t, t_prime = hoeffding_radii(n, c, alpha)
    assert t > 0 and t_prime > 0
    # t' = t * C: the second-moment radius scales with the range.
    assert t_prime == t * c or abs(t_prime - t * c) < 1e-9 * max(1.0, t_prime)


@given(
    alpha_small=st.just(0.01),
    alpha_large=st.just(0.2),
    n=st.integers(min_value=2, max_value=1000),
)
@settings(max_examples=30, deadline=None)
def test_radii_monotone_in_alpha(alpha_small, alpha_large, n):
    t_small, _ = hoeffding_radii(n, 1.0, alpha_small)
    t_large, _ = hoeffding_radii(n, 1.0, alpha_large)
    assert t_small > t_large  # more confidence -> wider radius


@given(
    r=st.floats(min_value=-0.999, max_value=0.999, allow_nan=False),
    n=st.integers(min_value=4, max_value=100_000),
    alpha=st.sampled_from([0.01, 0.05, 0.1]),
)
@settings(max_examples=100, deadline=None)
def test_fisher_interval_well_formed(r, n, alpha):
    ci = fisher_interval(r, n, alpha)
    assert -1.0 <= ci.low <= r <= ci.high <= 1.0
