"""Robust Qn correlation (Section 5.3, estimator 4).

Combines two classical robust-statistics ingredients (see Shevlyakov & Oja,
*Robust Correlation*, 2016):

* the **Qn scale estimator** of Rousseeuw & Croux (1993): the k-th order
  statistic of all pairwise absolute differences, ``k = C(h, 2)`` with
  ``h = ⌊n/2⌋ + 1``, scaled by the Gaussian-consistency constant 2.2219
  and a small-sample correction factor. It has a 50% breakdown point and
  82% Gaussian efficiency.
* the **scale-based correlation identity**: for standardized variables,
  ``ρ = (var(u) − var(v)) / (var(u) + var(v))`` where
  ``u = (x̃ + ỹ)/√2`` and ``v = (x̃ − ỹ)/√2``. Substituting a robust scale
  for the standard deviation yields a robust correlation estimator:

  ``r_Qn = (Qn(u)² − Qn(v)²) / (Qn(u)² + Qn(v)²)``.

The estimator is more outlier-resistant than Pearson but needs larger
samples — Figure 4 of the paper shows it as the spiky, least-stable line,
a behaviour our reproduction should (and does) exhibit.

The Qn computation here is the straightforward O(n²) formulation, which is
appropriate for sketch-sized samples (n ≤ a few thousand); the
O(n log n) algorithm of Croux & Rousseeuw exists but is not needed at this
scale.
"""

from __future__ import annotations

import math

import numpy as np

#: Gaussian consistency constant for Qn (Croux & Rousseeuw 1992).
QN_CONSISTENCY = 2.2219

#: Small-sample correction factors d_n for n = 2..9 (Croux & Rousseeuw).
_SMALL_SAMPLE_D = {
    2: 0.399,
    3: 0.994,
    4: 0.512,
    5: 0.844,
    6: 0.611,
    7: 0.857,
    8: 0.669,
    9: 0.872,
}


def _small_sample_factor(n: int) -> float:
    if n <= 9:
        return _SMALL_SAMPLE_D.get(n, 1.0)
    if n % 2 == 1:
        return n / (n + 1.4)
    return n / (n + 3.8)


def qn_scale(values: np.ndarray) -> float:
    """Return the Qn robust scale estimate of ``values``.

    Returns NaN for fewer than 2 observations; 0.0 when more than half of
    the observations coincide (Qn's breakdown behaviour).
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if n < 2:
        return math.nan

    # All pairwise absolute differences |x_i - x_j|, i < j.
    diffs = np.abs(values[:, None] - values[None, :])
    iu = np.triu_indices(n, k=1)
    pairwise = diffs[iu]

    h = n // 2 + 1
    k = h * (h - 1) // 2  # C(h, 2), 1-based order statistic
    kth = float(np.partition(pairwise, k - 1)[k - 1])
    return QN_CONSISTENCY * _small_sample_factor(n) * kth


def qn_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Return the Qn-based robust correlation between ``x`` and ``y``.

    Returns NaN when either column's Qn scale is zero or undefined (the
    standardization would divide by zero). The result is clipped to
    ``[-1, 1]``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.shape[0] < 2:
        return math.nan

    sx = qn_scale(x)
    sy = qn_scale(y)
    if not (sx > 0.0) or not (sy > 0.0):
        return math.nan

    with np.errstate(over="ignore", invalid="ignore"):
        xs = x / sx
        ys = y / sy
        u = (xs + ys) / math.sqrt(2.0)
        v = (xs - ys) / math.sqrt(2.0)
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        # A subnormal scale: the standardized columns overflow.
        return math.nan
    qu = qn_scale(u)
    qv = qn_scale(v)
    qu2 = qu * qu
    qv2 = qv * qv
    denom = qu2 + qv2
    if not (denom > 0.0) or math.isnan(denom):
        return math.nan
    r = (qu2 - qv2) / denom
    return max(-1.0, min(1.0, r))
