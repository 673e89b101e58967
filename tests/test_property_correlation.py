"""Property-based tests for correlation estimator invariants."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.correlation.pearson import pearson
from repro.correlation.qn import qn_correlation, qn_scale
from repro.correlation.ranks import average_ranks
from repro.correlation.rin import rin
from repro.correlation.spearman import spearman

finite = st.floats(min_value=-1e8, max_value=1e8, allow_nan=False)
paired = st.integers(min_value=2, max_value=60).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, n, elements=finite),
        arrays(np.float64, n, elements=finite),
    )
)


@given(xy=paired)
@settings(max_examples=100, deadline=None)
def test_pearson_bounded_or_nan(xy):
    r = pearson(*xy)
    assert math.isnan(r) or -1.0 <= r <= 1.0


@given(xy=paired)
@settings(max_examples=100, deadline=None)
def test_pearson_symmetric(xy):
    x, y = xy
    a, b = pearson(x, y), pearson(y, x)
    assert (math.isnan(a) and math.isnan(b)) or a == b


moderate = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
paired_moderate = st.integers(min_value=2, max_value=60).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, n, elements=moderate),
        arrays(np.float64, n, elements=moderate),
    )
)


@given(
    xy=paired_moderate,
    scale=st.floats(min_value=0.1, max_value=10),
    shift=st.floats(min_value=-100, max_value=100, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_pearson_affine_invariance(xy, scale, shift):
    x, y = xy
    r1 = pearson(x, y)
    assume(not math.isnan(r1))
    r2 = pearson(scale * x + shift, y)
    assume(not math.isnan(r2))  # the shift can absorb tiny variance in fp
    assert r2 == r1 or abs(r2 - r1) < 1e-6


@given(xy=paired)
@settings(max_examples=100, deadline=None)
def test_spearman_bounded_or_nan(xy):
    r = spearman(*xy)
    assert math.isnan(r) or -1.0 <= r <= 1.0


@given(
    # Bounded away from zero so cubing cannot underflow values into new
    # ties (e.g. 7e-194**3 -> 0.0).
    x=st.lists(
        st.floats(min_value=0.01, max_value=100, allow_nan=False),
        min_size=3,
        max_size=40,
        unique=True,
    ),
    y=st.lists(
        st.floats(min_value=0.01, max_value=100, allow_nan=False),
        min_size=3,
        max_size=40,
        unique=True,
    ),
)
@settings(max_examples=60, deadline=None)
def test_spearman_invariant_under_strictly_monotone_transform(x, y):
    n = min(len(x), len(y))
    x_arr = np.asarray(x[:n])
    y_arr = np.asarray(y[:n])
    r1 = spearman(x_arr, y_arr)
    assume(not math.isnan(r1))
    # x -> x^3 is strictly monotone on a modest range: ranks unchanged.
    r2 = spearman(x_arr**3, y_arr)
    assert abs(r1 - r2) < 1e-9


@given(values=arrays(np.float64, st.integers(2, 60), elements=finite))
@settings(max_examples=100, deadline=None)
def test_average_ranks_are_permutation_of_expected_sum(values):
    ranks = average_ranks(values)
    n = len(values)
    assert float(ranks.sum()) == float(n * (n + 1) / 2)
    assert ranks.min() >= 1.0
    assert ranks.max() <= n


@given(values=arrays(np.float64, st.integers(2, 50), elements=finite))
@settings(max_examples=60, deadline=None)
def test_qn_scale_nonnegative(values):
    s = qn_scale(values)
    assert math.isnan(s) or s >= 0.0


@given(xy=paired)
@settings(max_examples=60, deadline=None)
def test_qn_correlation_bounded_or_nan(xy):
    r = qn_correlation(*xy)
    assert math.isnan(r) or -1.0 <= r <= 1.0


@given(xy=paired)
@settings(max_examples=60, deadline=None)
def test_rin_bounded_or_nan(xy):
    r = rin(*xy)
    assert math.isnan(r) or -1.0 <= r <= 1.0


def _unscaled_pearson(x, y):
    """``pearson`` without its power-of-two column scaling: centers and
    sums the raw values (so ×1e155 overflows to ``inf``), in the moment
    pass's reduction order (``np.add.reduceat`` over one segment)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        return math.nan

    def total(values):
        return float(np.add.reduceat(values, [0])[0])

    dx = x - total(x) / n
    dy = y - total(y) / n
    sxx = total(dx * dx)
    syy = total(dy * dy)
    eps = np.finfo(np.float64).eps
    tol_x = (8.0 * eps * float(np.abs(x).max(initial=0.0))) ** 2 * n
    tol_y = (8.0 * eps * float(np.abs(y).max(initial=0.0))) ** 2 * n
    if sxx <= tol_x or syy <= tol_y:
        return math.nan
    denom = math.sqrt(sxx) * math.sqrt(syy)
    if denom <= 0.0 or math.isinf(denom):
        return math.nan
    r = total(dx * dy) / denom
    return max(-1.0, min(1.0, r))


#: Unit-scale values: 0 or a magnitude in [1e-3, 1e3], either sign — far
#: from both float64 overflow and the subnormal range.
unit_scale = st.just(0.0) | st.tuples(
    st.booleans(), st.floats(min_value=1e-3, max_value=1e3)
).map(lambda signed: -signed[1] if signed[0] else signed[1])
paired_unit = st.integers(min_value=2, max_value=80).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, n, elements=unit_scale),
        arrays(np.float64, n, elements=unit_scale),
    )
)


@given(xy=paired_unit)
@settings(max_examples=100, deadline=None)
def test_pearson_scaling_is_bit_identical_on_unit_scale(xy):
    """The power-of-two column scaling is exact: on values where the raw
    sums cannot overflow, ``pearson`` answers the unscaled formula's
    float bit for bit (NaN where it is NaN)."""
    x, y = xy
    got, want = pearson(x, y), _unscaled_pearson(x, y)
    assert (math.isnan(got) and math.isnan(want)) or got == want
