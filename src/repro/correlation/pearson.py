"""Pearson's sample correlation coefficient (Eq. 3 of the paper).

Implemented directly on numpy arrays rather than delegating to
``np.corrcoef`` so the degenerate cases the sketches routinely produce
(tiny samples, constant columns from low-variance joins) are handled with
explicit, documented semantics:

* fewer than 2 pairs → NaN (correlation undefined);
* zero variance in either column → NaN (denominator is zero);
* result clipped to ``[-1, 1]`` to absorb floating-point drift.

``r`` is scale-invariant, so each column is first scaled by the power of
two that brings its largest magnitude into ``[0.5, 1)``. That scaling is
exact and every later step commutes with it, so it moves no answer bit
while keeping the centered sums of huge finite values (×1e155 and
beyond) from overflowing to ``inf``.
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

    x, y = _unit_scaled(x), _unit_scaled(y)
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


def _unit_scaled(column: np.ndarray) -> np.ndarray:
    """``column * 2**-e`` with ``e`` the binary exponent of its largest
    magnitude (exact; an all-zero or non-finite maximum is left as is)."""
    _, exponent = np.frexp(np.abs(column).max())
    return np.ldexp(column, -exponent)
