"""Distribution-free Hoeffding confidence bounds for correlation (§4.3).

The paper's analysis shifts both joined columns by ``C_low`` so they lie in
``[0, C]`` with ``C = C_high − C_low``, decomposes Pearson's ρ into five
bounded averages —

    ρ = (ν_AB − μ_A μ_B) / (sqrt(ν_A − μ_A²) · sqrt(ν_B − μ_B²))

— bounds each parameter with Hoeffding's inequality for sampling *without
replacement* at level ``α/5``, and combines them with a union bound and
interval arithmetic (Eqs. 6–7) into a ``1 − α`` interval for ρ.

Two deviation radii cover all five parameters:

    t  = sqrt(ln(10/α) · C² / (2n))   for μ_A, μ_B   (values in [0, C])
    t' = sqrt(ln(10/α) · C⁴ / (2n))   for ν_A, ν_B, ν_AB (in [0, C²])

Small samples can drive the variance lower bounds ``ν_low − μ_high²``
negative, collapsing the denominator to zero and yielding the vacuous
interval. The paper's remedy (the **HFD** variant) replaces both
denominator bounds by the *sample* standard-deviation product — no longer
a probabilistic bound, but its length is still a meaningful dispersion
measure, and it is what the ``cih`` ranking factor uses (Section 4.4).
"""

from __future__ import annotations

import math

import numpy as np

from repro.bounds.intervals import ConfidenceInterval
from repro.correlation.pearson import pearson_moments


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
        c_low, c_high: global value bounds over *both* original columns
            (Section 4.3: since the joined columns are subsets of the
            originals, single-pass column min/max are valid bounds).
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

    # The shifted columns live in [0, C], so every population parameter is
    # confined to a known domain (means in [0, C], second moments in
    # [0, C²]). Intersecting the Hoeffding intervals with those domains
    # preserves coverage and is *required* for the numerator bounds below:
    # -μ_Aμ_B is only monotone in (μ_A, μ_B) on the non-negative orthant.
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
        # Even the optimistic variance bound is zero: the data carries no
        # scale information and the quotient is unconstrained.
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
    deviations of the sketch-join sample. Not a true probabilistic bound;
    its length is the dispersion measure behind the ``cih`` ranking factor.
    The endpoints are not clipped (they can exceed ±1).
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

    # Same domain clamping as hoeffding_interval (see comment there).
    mu_a_low, mu_a_high = _clamp(moments["mu_a"], t, 0.0, c)
    mu_b_low, mu_b_high = _clamp(moments["mu_b"], t, 0.0, c)
    nu_ab_low, nu_ab_high = _clamp(moments["nu_ab"], t_prime, 0.0, c * c)

    num_low = nu_ab_low - mu_a_high * mu_b_high
    num_high = nu_ab_high - mu_a_low * mu_b_low

    var_a = max(0.0, moments["nu_a"] - moments["mu_a"] ** 2)
    var_b = max(0.0, moments["nu_b"] - moments["mu_b"] ** 2)
    den = math.sqrt(var_a) * math.sqrt(var_b)
    if den <= 0.0:
        # Zero sample variance: the normalization is void; fall back to
        # the vacuous correlation range so the CI length stays finite.
        return ConfidenceInterval(-1.0, 1.0, math.nan, "hfd")

    low, high = _interval_quotient(num_low, num_high, den, den)
    return ConfidenceInterval(low=low, high=high, alpha=math.nan, method="hfd")
