"""The pair-at-a-time sketch join and scalar §4.3 intervals.

Not a test file: it is the ninth oracle. :func:`join_sketches` joins one
sketch pair as the dict-set intersection of the two sketches' entry
maps, sorted by rank (Section 3.2, Theorem 1), and :func:`drop_nan`
filters its missing pairs; :func:`hoeffding_interval` (Eqs. 6–7) and
:func:`hfd_interval` (the small-sample variant behind ``cih``) bound one
sample with Python scalars over :func:`pearson_moments`'s five
parameters. They were ``repro.core.joined_sample.join_sketches``,
``JoinedSample.drop_nan`` / ``combined_range``,
``repro.bounds.hoeffding`` and ``repro.correlation.pearson_moments``
until a sketch pair became a page of one: ``src/`` joins every pair
through the page kernel ``repro.core.joined_sample.join_page`` and
bounds it with the column kernels ``hfd_intervals`` /
``hoeffding_intervals`` over the page's one centered moment pass
(``repro.correlation.pearson.page_moments``).

The join is held to the kernel bit for bit, the intervals to within
float rounding: this oracle's raw moments ``ν − μ²`` against the
kernels' centered sums, which agree closely only on well-scaled samples
(``test_property_bounds.py`` holds the HFD kernel to
:func:`hfd_interval_exact` on the offset and scale families where the
raw form cancels). :func:`pair_sample` is the page of one as this
oracle states it: the NaN-filtered join whose value bounds
follow the range rule — the stored column ranges when both aggregates
are range-preserving, else the sample's own.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bounds.intervals import ConfidenceInterval
from repro.core.aggregators import RANGE_PRESERVING_AGGREGATES
from repro.core.joined_sample import JoinedSample
from repro.correlation.pearson import page_moments

# -- the sketch join ---------------------------------------------------------


def join_sketches(left, right) -> JoinedSample:
    """Join two sketches on their key hashes (Section 3.2, step 1).

    Raises:
        ValueError: if the sketches use different hashing schemes — their
            tuple identifiers would not be comparable.
    """
    if left.hasher.scheme_id != right.hasher.scheme_id:
        raise ValueError(
            "cannot join sketches built with different hashing schemes: "
            f"{left.hasher!r} vs {right.hasher!r}"
        )

    left_entries = left.entries()
    right_entries = right.entries()
    if len(left_entries) > len(right_entries):
        # Iterate the smaller map for the membership probes.
        common = [kh for kh in right_entries if kh in left_entries]
    else:
        common = [kh for kh in left_entries if kh in right_entries]

    # Deterministic order: ascending unit-hash rank (equivalently, the
    # order in which a bigger sketch would have admitted them).
    common.sort(key=left.hasher.unit_hash_of_key_hash)

    key_hashes = np.asarray(common, dtype=np.uint64)
    x = np.asarray([left_entries[kh] for kh in common], dtype=np.float64)
    y = np.asarray([right_entries[kh] for kh in common], dtype=np.float64)

    def _range(sketch) -> tuple[float, float]:
        if sketch.value_min > sketch.value_max:
            return (np.nan, np.nan)
        return (sketch.value_min, sketch.value_max)

    return JoinedSample(
        key_hashes=key_hashes,
        x=x,
        y=y,
        x_range=_range(left),
        y_range=_range(right),
    )


def drop_nan(sample: JoinedSample) -> JoinedSample:
    """The sample without pairs containing NaN (missing data); the
    sample itself when it has none."""
    mask = ~(np.isnan(sample.x) | np.isnan(sample.y))
    if mask.all():
        return sample
    return JoinedSample(
        key_hashes=sample.key_hashes[mask],
        x=sample.x[mask],
        y=sample.y[mask],
        x_range=sample.x_range,
        y_range=sample.y_range,
    )


def combined_range(sample: JoinedSample) -> tuple[float, float]:
    """``(C_low, C_high)`` over both columns, as Section 4.3 defines."""
    lows = [v for v in (sample.x_range[0], sample.y_range[0]) if v == v]
    highs = [v for v in (sample.x_range[1], sample.y_range[1]) if v == v]
    if not lows or not highs:
        return (np.nan, np.nan)
    return (min(lows), max(highs))


def pair_sample(left, right) -> JoinedSample:
    """The page of one for ``(left, right)``: the NaN-filtered join with
    the range rule applied to its value bounds."""
    sample = drop_nan(join_sketches(left, right))
    if (
        left.aggregate in RANGE_PRESERVING_AGGREGATES
        and right.aggregate in RANGE_PRESERVING_AGGREGATES
    ):
        return sample

    def observed(values: np.ndarray) -> tuple[float, float]:
        if not values.size:
            return (np.nan, np.nan)
        return (float(values.min()), float(values.max()))

    return JoinedSample(
        key_hashes=sample.key_hashes,
        x=sample.x,
        y=sample.y,
        x_range=observed(sample.x),
        y_range=observed(sample.y),
    )


# -- the scalar §4.3 intervals ------------------------------------------------


def one_sample(kernel, x, y, c_low, c_high, alpha=0.05) -> ConfidenceInterval:
    """A column kernel of ``repro.bounds.hoeffding`` run on a page of one
    sample, answered as the scalar functions below answer."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    moments = page_moments(x, y, np.array([0, x.size]))
    low, high = kernel(moments, np.array([c_low]), np.array([c_high]), alpha)
    if kernel.__name__ == "hfd_intervals":
        return ConfidenceInterval(float(low[0]), float(high[0]), math.nan, "hfd")
    return ConfidenceInterval(float(low[0]), float(high[0]), alpha, "hoeffding")


def pearson_moments(x: np.ndarray, y: np.ndarray) -> dict[str, float]:
    """Return the five moment parameters the Hoeffding CI analysis uses.

    Section 4.3 decomposes ``r`` into ``μ_a, μ_b, ν_a, ν_b, ν_ab`` (first
    and second raw moments plus the cross moment), each an average of ``n``
    bounded terms.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.shape[0] == 0:
        nan = math.nan
        return {"mu_a": nan, "mu_b": nan, "nu_a": nan, "nu_b": nan, "nu_ab": nan, "n": 0}
    return {
        "mu_a": float(x.mean()),
        "mu_b": float(y.mean()),
        "nu_a": float(np.mean(x * x)),
        "nu_b": float(np.mean(y * y)),
        "nu_ab": float(np.mean(x * y)),
        "n": int(x.shape[0]),
    }


def hoeffding_radii(n: int, value_range: float, alpha: float) -> tuple[float, float]:
    """Return the deviation radii ``(t, t')`` for the five parameters.

    Args:
        n: sketch-join sample size.
        value_range: ``C = C_high − C_low`` over both columns.
        alpha: total miscoverage; each parameter gets ``alpha / 5``.
    """
    if n <= 0:
        return math.inf, math.inf
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    log_term = math.log(10.0 / alpha)
    c2 = value_range * value_range
    t = math.sqrt(log_term * c2 / (2.0 * n))
    t_prime = math.sqrt(log_term * c2 * c2 / (2.0 * n))
    return t, t_prime


def _shifted_moments(
    x: np.ndarray, y: np.ndarray, c_low: float, c: float
) -> dict[str, float] | None:
    """The five parameters of both columns shifted into ``[0, C]``.

    None when ``C²`` or a moment is not a finite float64 — values of
    magnitude around 1.3e154 and beyond. The second moments' domain
    ``[0, C²]`` is then unrepresentable, and both intervals fall back to
    the vacuous one rather than overflow.
    """
    if not math.isfinite(c * c):
        return None
    with np.errstate(over="ignore"):
        moments = pearson_moments(x - c_low, y - c_low)
    if not all(math.isfinite(v) for v in moments.values()):
        return None
    return moments


def _clamp(center: float, radius: float, lo: float, hi: float) -> tuple[float, float]:
    """Intersect ``[center − radius, center + radius]`` with ``[lo, hi]``."""
    return max(lo, center - radius), min(hi, center + radius)


def _interval_quotient(
    num_low: float, num_high: float, den_low: float, den_high: float
) -> tuple[float, float]:
    """Apply the paper's Eq. 6–7 sign-aware interval division.

    ``den_low ≤ den_high`` are non-negative; a zero denominator yields
    ±inf, which the caller clips to [-1, 1] (the vacuous interval).
    """

    def _div(num: float, den: float) -> float:
        if den <= 0.0:
            if num == 0.0:
                return 0.0
            return math.inf if num > 0 else -math.inf
        return num / den

    low = _div(num_low, den_high) if num_low >= 0 else _div(num_low, den_low)
    high = _div(num_high, den_low) if num_high >= 0 else _div(num_high, den_high)
    return low, high


def hoeffding_interval(
    x: np.ndarray,
    y: np.ndarray,
    c_low: float,
    c_high: float,
    alpha: float = 0.05,
) -> ConfidenceInterval:
    """True ``1 − α`` Hoeffding interval for ρ (Eqs. 6–7).

    Args:
        x, y: the sketch-join sample (NaN-free, equal length).
        c_low, c_high: global value bounds over *both* original columns.
        alpha: total miscoverage level.

    Returns:
        An interval clipped to ``[-1, 1]``; vacuous (``[-1, 1]``) when the
        sample is too small for the variance lower bounds to stay positive.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    n = x.shape[0]
    if n == 0 or math.isnan(c_low) or math.isnan(c_high) or c_high < c_low:
        return ConfidenceInterval(-1.0, 1.0, alpha, "hoeffding")

    c = c_high - c_low
    if c == 0.0:
        # Both columns constant: correlation undefined; vacuous interval.
        return ConfidenceInterval(-1.0, 1.0, alpha, "hoeffding")

    moments = _shifted_moments(x, y, c_low, c)
    if moments is None:
        return ConfidenceInterval(-1.0, 1.0, alpha, "hoeffding")
    t, t_prime = hoeffding_radii(n, c, alpha)

    # Means in [0, C], second moments in [0, C²]: the domain clamp keeps
    # coverage and makes -μ_Aμ_B monotone in (μ_A, μ_B).
    mu_a_low, mu_a_high = _clamp(moments["mu_a"], t, 0.0, c)
    mu_b_low, mu_b_high = _clamp(moments["mu_b"], t, 0.0, c)
    nu_a_low, nu_a_high = _clamp(moments["nu_a"], t_prime, 0.0, c * c)
    nu_b_low, nu_b_high = _clamp(moments["nu_b"], t_prime, 0.0, c * c)
    nu_ab_low, nu_ab_high = _clamp(moments["nu_ab"], t_prime, 0.0, c * c)

    num_low = nu_ab_low - mu_a_high * mu_b_high
    num_high = nu_ab_high - mu_a_low * mu_b_low

    den_low = math.sqrt(
        max(0.0, nu_a_low - mu_a_high**2) * max(0.0, nu_b_low - mu_b_high**2)
    )
    den_high = math.sqrt(
        max(0.0, nu_a_high - mu_a_low**2) * max(0.0, nu_b_high - mu_b_low**2)
    )
    if den_high <= 0.0:
        return ConfidenceInterval(-1.0, 1.0, alpha, "hoeffding")

    low, high = _interval_quotient(num_low, num_high, den_low, den_high)
    return ConfidenceInterval(
        low=max(-1.0, low), high=min(1.0, high), alpha=alpha, method="hoeffding"
    )


def hfd_interval(
    x: np.ndarray,
    y: np.ndarray,
    c_low: float,
    c_high: float,
    alpha: float = 0.05,
) -> ConfidenceInterval:
    """The paper's small-sample HFD variant (ρ^low_HFD, ρ^high_HFD).

    Identical to :func:`hoeffding_interval` in the numerator but with both
    denominator bounds replaced by the product of the *sample* standard
    deviations. The endpoints are not clipped (they can exceed ±1).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    n = x.shape[0]
    if n == 0 or math.isnan(c_low) or math.isnan(c_high) or c_high < c_low:
        return ConfidenceInterval(-1.0, 1.0, math.nan, "hfd")

    c = c_high - c_low
    if c == 0.0:
        return ConfidenceInterval(-1.0, 1.0, math.nan, "hfd")

    moments = _shifted_moments(x, y, c_low, c)
    if moments is None:
        return ConfidenceInterval(-1.0, 1.0, math.nan, "hfd")
    t, t_prime = hoeffding_radii(n, c, alpha)

    mu_a_low, mu_a_high = _clamp(moments["mu_a"], t, 0.0, c)
    mu_b_low, mu_b_high = _clamp(moments["mu_b"], t, 0.0, c)
    nu_ab_low, nu_ab_high = _clamp(moments["nu_ab"], t_prime, 0.0, c * c)

    num_low = nu_ab_low - mu_a_high * mu_b_high
    num_high = nu_ab_high - mu_a_low * mu_b_low

    var_a = max(0.0, moments["nu_a"] - moments["mu_a"] ** 2)
    var_b = max(0.0, moments["nu_b"] - moments["mu_b"] ** 2)
    den = math.sqrt(var_a) * math.sqrt(var_b)
    if den <= 0.0:
        # Zero sample variance: fall back to the vacuous correlation
        # range so the CI length stays finite.
        return ConfidenceInterval(-1.0, 1.0, math.nan, "hfd")

    low, high = _interval_quotient(num_low, num_high, den, den)
    return ConfidenceInterval(low=low, high=high, alpha=math.nan, method="hfd")


def hfd_interval_exact(
    x: np.ndarray,
    y: np.ndarray,
    c_low: float,
    c_high: float,
    alpha: float = 0.05,
) -> tuple[float, float]:
    """:func:`hfd_interval`'s formula in exact rational arithmetic.

    Every moment, clamp and numerator bound is a ``Fraction`` of the
    float64 inputs; the radii ``t``, ``t'`` are irrational, so both this
    and the kernel take :func:`hoeffding_radii`'s float64 values. The
    endpoints ``num / (sd_A · sd_B)`` are rounded once, through the
    correctly rounded ``float(num² / (var_A · var_B))`` and ``math.sqrt``
    — within an ulp or two of exact. Vacuous ``(-1, 1)`` exactly where
    :func:`hfd_interval` is: no pairs, unusable bounds, or a zero
    sample variance.
    """
    from fractions import Fraction

    n = len(x)
    if n == 0 or math.isnan(c_low) or math.isnan(c_high) or c_high <= c_low:
        return -1.0, 1.0
    lo = Fraction(c_low)
    c = Fraction(c_high) - lo
    a = [Fraction(float(v)) - lo for v in x]
    b = [Fraction(float(v)) - lo for v in y]
    mu_a, mu_b = sum(a) / n, sum(b) / n
    var_a = sum(v * v for v in a) / n - mu_a * mu_a
    var_b = sum(v * v for v in b) / n - mu_b * mu_b
    if var_a == 0 or var_b == 0:
        return -1.0, 1.0
    nu_ab = sum(u * v for u, v in zip(a, b)) / n
    t, t_prime = (Fraction(r) for r in hoeffding_radii(n, c_high - c_low, alpha))
    mu_a_low, mu_a_high = max(Fraction(0), mu_a - t), min(c, mu_a + t)
    mu_b_low, mu_b_high = max(Fraction(0), mu_b - t), min(c, mu_b + t)
    nu_ab_low = max(Fraction(0), nu_ab - t_prime)
    nu_ab_high = min(c * c, nu_ab + t_prime)

    def endpoint(num: Fraction) -> float:
        return math.copysign(math.sqrt(float(num * num / (var_a * var_b))), num)

    return (
        endpoint(nu_ab_low - mu_a_high * mu_b_high),
        endpoint(nu_ab_high - mu_a_low * mu_b_low),
    )
