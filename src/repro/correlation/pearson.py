"""Pearson's sample correlation coefficient (Eq. 3 of the paper) and the
one centered moment pass that every served statistic reads.

:func:`page_moments` reduces a page of joined samples (CSR ``x``, ``y``,
``indptr``) to each sample's size, means and centered sums in nine
segment reductions (two ``|max|``, two means, their two two-pass
corrections, ``s_xx``, ``s_yy``, ``s_xy``; the pairs run as five calls
over both columns at once); Pearson's ``r`` and both §4.3 intervals
(:mod:`repro.bounds.hoeffding`) derive from them. The scalar
:func:`pearson` is the pass on a page of one, so a pair's ``r`` equals
the served page's bit for bit. ``r`` is NaN for fewer than 2 pairs or a
numerically constant column (spread within a few ulps of its magnitude),
and clipped to ``[-1, 1]``. Each sample is first scaled by the power of
two that brings its largest magnitude into ``[0.5, 1)``: exact and
commuting with every later step, so no answer bit moves while the sums
of huge finite values (×1e155 and beyond) stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: A 0/0 quotient of an undefined row and the NaN an infinite value
#: breeds are masked by the callers' rules, never reported.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")

#: A column is numerically constant when its centered sum of squares is
#: within ``n · (8ε · max|x|)²``.
_FLAT = 8.0 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class PageMoments:
    """The centered moments of the non-empty samples ``rows`` of a page
    of ``count`` samples, per row: size ``n`` (float64), scaled means and
    centered sums — ``np.ldexp(mean_x, exp_x)`` is x̄,
    ``np.ldexp(sxx, 2 * exp_x)`` is s_xx and
    ``np.ldexp(sxy, exp_x + exp_y)`` is s_xy — the scaled two-pass
    corrections ``dmean_x`` = Σ(x − x̄)/n and ``dmean_y`` (what the
    rounded means missed, Chan, Golub & LeVeque 1983), and ``varies``:
    at least two pairs and neither column numerically constant, where
    ``r`` is defined and the sample standard deviations are nonzero."""

    count: int
    rows: np.ndarray
    n: np.ndarray
    mean_x: np.ndarray
    mean_y: np.ndarray
    dmean_x: np.ndarray
    dmean_y: np.ndarray
    sxx: np.ndarray
    syy: np.ndarray
    sxy: np.ndarray
    exp_x: np.ndarray
    exp_y: np.ndarray
    varies: np.ndarray

    def pearson(self) -> np.ndarray:
        """Pearson's ``r`` of every sample, NaN where undefined."""
        r = np.full(self.count, np.nan)
        with np.errstate(**_QUIET):
            quotient = self.sxy / (np.sqrt(self.sxx) * np.sqrt(self.syy))
        r[self.rows] = np.where(self.varies, np.clip(quotient, -1.0, 1.0), np.nan)
        return r


def page_moments(x: np.ndarray, y: np.ndarray, indptr: np.ndarray) -> PageMoments:
    """The one moment pass over a page whose sample ``i`` owns
    ``x[indptr[i]:indptr[i + 1]]`` and ``y[...]`` (NaN-free; ``indptr``
    runs from 0 to ``len(x)``). Both columns go through each step
    together, as the first and second half of one array of twice the
    segments: half the NumPy calls, the same bits."""
    lengths = indptr[1:] - indptr[:-1]
    rows = np.flatnonzero(lengths)
    seg_len = lengths[rows]
    n = seg_len.astype(np.float64)
    starts = indptr[rows]
    r = rows.size
    xy = np.concatenate((x, y))
    starts2 = np.concatenate((starts, starts + x.size))
    seg_len2, n2 = np.concatenate((seg_len, seg_len)), np.concatenate((n, n))
    with np.errstate(**_QUIET):
        # Each segment times 2**-e, e the binary exponent of its largest
        # magnitude (an all-zero or non-finite maximum is left as is).
        absmax = np.maximum.reduceat(np.abs(xy), starts2)
        _, exp = np.frexp(absmax)
        xy = np.ldexp(xy, (-exp).repeat(seg_len2))
        absmax = np.ldexp(absmax, -exp)
        mean = np.add.reduceat(xy, starts2) / n2
        d = xy - mean.repeat(seg_len2)
        dmean = np.add.reduceat(d, starts2) / n2
        ss = np.add.reduceat(d * d, starts2)
        sxy = np.add.reduceat(d[: x.size] * d[x.size :], starts)
    tol = _FLAT * absmax
    spread = ss > tol * tol * n2
    varies = (seg_len >= 2) & spread[:r] & spread[r:]
    return PageMoments(
        len(indptr) - 1, rows, n, mean[:r], mean[r:], dmean[:r], dmean[r:],
        ss[:r], ss[r:], sxy, exp[:r], exp[r:], varies,
    )


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's ``r`` of equal-length 1-D ``x``, ``y`` (NaN pairs removed
    by the caller), NaN when undefined: :func:`page_moments` on a page
    of one."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(page_moments(x, y, np.array([0, x.shape[0]])).pearson()[0])
