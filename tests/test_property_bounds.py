"""Property-based tests for confidence-bound invariants."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.bounds.hoeffding import hfd_intervals, hoeffding_intervals
from repro.correlation.fisher import fisher_interval
from repro.correlation.pearson import page_moments, pearson

from sketch_join_oracle import (
    hfd_interval_exact,
    hoeffding_interval_exact,
    hoeffding_radii,
    one_sample,
)


def hoeffding_interval(x, y, c_low, c_high, alpha=0.05):
    """The column kernel on a page of one sample."""
    return one_sample(hoeffding_intervals, x, y, c_low, c_high, alpha)


def hfd_interval(x, y, c_low, c_high, alpha=0.05):
    return one_sample(hfd_intervals, x, y, c_low, c_high, alpha)


#: ``(location, scale)`` of a column: the unit case and the offset and
#: scale families on which ν − μ² cancels (and, with both columns
#: offset, on which a rounded mean shifted by C_low does).
FAMILIES = ((0.0, 1.0), (1e6, 1e3), (0.0, 1e6), (1e4, 1e-3), (1e8, 1.0))


@st.composite
def family_pages(draw):
    """A ragged page of 1–6 samples (sizes 0–60), each column drawn from
    one of :data:`FAMILIES` on its own (so either, both or neither is
    offset) with correlation ρ, and bounds that are the sample's own
    range widened by a margin, or unknown."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(0, 60), min_size=1, max_size=6))
    xs, ys, lows, highs = [], [], [], []
    for size in sizes:
        (x_loc, x_scale), (y_loc, y_scale) = draw(st.sampled_from(FAMILIES)), draw(
            st.sampled_from(FAMILIES)
        )
        rho = draw(st.floats(-0.99, 0.99))
        z = rng.standard_normal(size)
        w = rho * z + math.sqrt(1.0 - rho * rho) * rng.standard_normal(size)
        x, y = x_loc + x_scale * z, y_loc + y_scale * w
        xs.append(x)
        ys.append(y)
        if size and draw(st.integers(0, 4)):
            margin = draw(st.floats(0.0, 2.0))
            lows.append(min(x.min(), y.min()) - margin)
            highs.append(max(x.max(), y.max()) + margin)
        else:
            lows.append(math.nan)
            highs.append(math.nan)
    return (
        np.concatenate(xs),
        np.concatenate(ys),
        np.concatenate(([0], np.cumsum(sizes))),
        np.array(lows),
        np.array(highs),
        draw(st.sampled_from((0.01, 0.05, 0.1))),
    )


@given(page=family_pages())
@settings(max_examples=150, deadline=None)
def test_hfd_endpoints_match_exact_arithmetic(page):
    """The page's HFD endpoints are within 1e-12 relative of the same
    formula in exact arithmetic, on the offset and scale families too:
    the centered moment pass does not cancel where ν − μ² did (1.0
    relative at 1e8 + N, where the raw form answered the vacuous
    interval), and the two-pass mean keeps μ_A exact where both columns
    sit far from zero (1.1e-8 relative from the rounded mean alone)."""
    x, y, indptr, c_low, c_high, alpha = page
    low, high = hfd_intervals(page_moments(x, y, indptr), c_low, c_high, alpha)
    for i in range(len(indptr) - 1):
        s = slice(indptr[i], indptr[i + 1])
        want = hfd_interval_exact(x[s], y[s], c_low[i], c_high[i], alpha)
        for got, ref in zip((low[i], high[i]), want):
            assert math.isclose(got, ref, rel_tol=1e-12), (i, got, ref)


@st.composite
def informative_pages(draw):
    """A page of 1–2 samples large enough (1 000–2 000 pairs) for the
    true Hoeffding interval to inform: both columns two-valued plus a
    little jitter, so each variance is near its C²/4 maximum, both in
    one family, with the sample's own range as bounds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1000, 2000), min_size=1, max_size=2))
    xs, ys, lows, highs = [], [], [], []
    for size in sizes:
        location, scale = draw(st.sampled_from(FAMILIES))
        agree = draw(st.floats(0.0, 1.0))
        bits = rng.integers(0, 2, size)
        flips = rng.random(size) >= agree
        x = location + scale * (bits + 0.01 * rng.standard_normal(size))
        y = location + scale * ((bits ^ flips) + 0.01 * rng.standard_normal(size))
        xs.append(x)
        ys.append(y)
        lows.append(min(x.min(), y.min()))
        highs.append(max(x.max(), y.max()))
    return (
        np.concatenate(xs),
        np.concatenate(ys),
        np.concatenate(([0], np.cumsum(sizes))),
        np.array(lows),
        np.array(highs),
        draw(st.sampled_from((0.01, 0.05, 0.1))),
    )


@given(page=informative_pages())
@settings(max_examples=25, deadline=None)
def test_hoeffding_endpoints_match_exact_arithmetic(page):
    """The page's true Hoeffding endpoints are within 1e-12 relative of
    Eqs. 6–7 in exact arithmetic on samples where they inform, with both
    columns in each family (7.5e-8 relative at 1e8 + N from a rounded
    mean shifted by C_low)."""
    x, y, indptr, c_low, c_high, alpha = page
    low, high = hoeffding_intervals(page_moments(x, y, indptr), c_low, c_high, alpha)
    for i in range(len(indptr) - 1):
        s = slice(indptr[i], indptr[i + 1])
        want = hoeffding_interval_exact(x[s], y[s], c_low[i], c_high[i], alpha)
        assert want != (-1.0, 1.0), f"sample {i} is vacuous: the check is empty"
        for got, ref in zip((low[i], high[i]), want):
            assert math.isclose(got, ref, rel_tol=1e-12), (i, got, ref)


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
