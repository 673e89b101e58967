"""Pearson's sample correlation coefficient (Eq. 3 of the paper).

Implemented directly on numpy arrays rather than delegating to
``np.corrcoef`` so the degenerate cases the sketches routinely produce
(tiny samples, constant columns from low-variance joins) are handled with
explicit, documented semantics:

* fewer than 2 pairs → NaN (correlation undefined);
* zero variance in either column → NaN (denominator is zero);
* result clipped to ``[-1, 1]`` to absorb floating-point drift.
"""

from __future__ import annotations

import math

import numpy as np


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Return Pearson's sample correlation ``r`` between ``x`` and ``y``.

    Args:
        x, y: equal-length 1-D arrays of paired samples. NaN pairs must be
            removed by the caller (a sketch join drops them, see
            :func:`repro.core.joined_sample.join_page`).

    Returns:
        ``r`` in ``[-1, 1]``, or NaN when undefined.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    n = x.shape[0]
    if n < 2:
        return math.nan

    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))

    # Columns whose spread is within a few ulps of their magnitude are
    # numerically constant: the centered residuals are pure rounding noise
    # and the quotient below would return an arbitrary value in [-1, 1].
    eps = np.finfo(np.float64).eps
    tol_x = (8.0 * eps * float(np.abs(x).max(initial=0.0))) ** 2 * n
    tol_y = (8.0 * eps * float(np.abs(y).max(initial=0.0))) ** 2 * n
    if sxx <= tol_x or syy <= tol_y:
        return math.nan

    denom = math.sqrt(sxx) * math.sqrt(syy)
    if denom <= 0.0 or math.isinf(denom):
        return math.nan
    r = float(np.dot(dx, dy)) / denom
    return max(-1.0, min(1.0, r))

