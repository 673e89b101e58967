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

Both are column kernels over a page of joined samples — CSR arrays
``x``, ``y``, ``indptr`` and per-sample bounds ``c_low``, ``c_high`` —
sharing one shifted-moment pass of segment reductions. A sample gets
the vacuous interval ``[-1, 1]`` when it is empty, its bounds are
unknown, inverted or equal, a sample variance is zero, or ``C²`` or a
shifted moment is not a finite float64 (values of magnitude around
1.3e154 and beyond, where the second moments' domain ``[0, C²]`` is
unrepresentable). The scalar pair functions these replaced are the test
oracle ``tests/sketch_join_oracle.py``.
"""

from __future__ import annotations

import math

import numpy as np

#: Overflow to ±inf and the NaN it breeds are handled by the per-row
#: guard and the zero-denominator rules, never reported.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


def _shifted_moments(
    x: np.ndarray,
    y: np.ndarray,
    indptr: np.ndarray,
    c_low: np.ndarray,
    c_high: np.ndarray,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """The pass both intervals share, over the non-empty samples.

    Returns ``(rows, defined, m)``: the non-empty samples, which of them
    have usable bounds and moments (False where the interval is vacuous
    by the bounds alone — unknown, inverted or equal — or by overflow,
    the per-row guard), and per row the range ``c``, the radius ``t'``,
    the five parameters of both columns shifted into ``[0, C]`` and
    Eq. 6's numerator bounds with the clamped means they use. The
    shifted columns live in ``[0, C]``, so every population parameter
    is confined to a known domain (means in ``[0, C]``, second moments
    in ``[0, C²]``); intersecting the Hoeffding intervals with those
    domains preserves coverage and is *required* for the numerator:
    ``-μ_Aμ_B`` is only monotone in ``(μ_A, μ_B)`` on the non-negative
    orthant.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    lengths = np.diff(indptr)
    rows = np.nonzero(lengths > 0)[0]
    seg_len = lengths[rows]
    seg_n = seg_len.astype(np.float64)
    starts = indptr[rows]
    clo, chi = c_low[rows], c_high[rows]
    c = chi - clo
    m: dict[str, np.ndarray] = {"c": c}
    with np.errstate(**_QUIET):
        a = x - np.repeat(clo, seg_len)
        b = y - np.repeat(clo, seg_len)
        for name, terms in (
            ("mu_a", a), ("mu_b", b), ("nu_a", a * a), ("nu_b", b * b), ("nu_ab", a * b)
        ):
            m[name] = np.add.reduceat(terms, starts) / seg_n if rows.size else c
        log_term = math.log(10.0 / alpha)
        c2 = c * c
        t = np.sqrt(log_term * c2 / (2.0 * seg_n))
        m["t_prime"] = t_prime = np.sqrt(log_term * c2 * c2 / (2.0 * seg_n))
        defined = ~(np.isnan(clo) | np.isnan(chi) | (chi < clo) | (c == 0.0))
        for value in (c2, m["mu_a"], m["mu_b"], m["nu_a"], m["nu_b"], m["nu_ab"]):
            defined &= np.isfinite(value)
        m["mu_a_low"] = np.maximum(0.0, m["mu_a"] - t)
        m["mu_a_high"] = np.minimum(c, m["mu_a"] + t)
        m["mu_b_low"] = np.maximum(0.0, m["mu_b"] - t)
        m["mu_b_high"] = np.minimum(c, m["mu_b"] + t)
        nu_ab_low = np.maximum(0.0, m["nu_ab"] - t_prime)
        nu_ab_high = np.minimum(c * c, m["nu_ab"] + t_prime)
        m["num_low"] = nu_ab_low - m["mu_a_high"] * m["mu_b_high"]
        m["num_high"] = nu_ab_high - m["mu_a_low"] * m["mu_b_low"]
    return rows, defined, m


def hfd_intervals(
    x: np.ndarray,
    y: np.ndarray,
    indptr: np.ndarray,
    c_low: np.ndarray,
    c_high: np.ndarray,
    alpha: float = 0.05,
) -> tuple[np.ndarray, np.ndarray]:
    """The paper's small-sample HFD variant ``(ρ^low_HFD, ρ^high_HFD)``
    of every sample on a page.

    The true interval's numerator with both denominator bounds replaced
    by the product of the *sample* standard deviations. Not a
    probabilistic bound; its length ``high − low`` is the dispersion
    measure behind the ``cih`` ranking factor. The endpoints are not
    clipped (they can exceed ±1).

    Args:
        x, y: the page's NaN-free joined values, sample ``i`` owning
            ``indptr[i]:indptr[i + 1]``.
        c_low, c_high: per-sample value bounds over both columns
            (:meth:`~repro.core.joined_sample.JoinedSamplePage.combined_ranges`).
        alpha: total miscoverage level.
    """
    low, high = np.full(len(indptr) - 1, -1.0), np.full(len(indptr) - 1, 1.0)
    rows, defined, m = _shifted_moments(x, y, indptr, c_low, c_high, alpha)
    with np.errstate(**_QUIET):
        var_a = np.maximum(0.0, m["nu_a"] - m["mu_a"] * m["mu_a"])
        var_b = np.maximum(0.0, m["nu_b"] - m["mu_b"] * m["mu_b"])
        den = np.sqrt(var_a) * np.sqrt(var_b)
        # Both denominator bounds equal the sample-SD product, so the
        # sign-aware interval quotient (Eqs. 6-7) is plain division.
        informative = defined & (den > 0.0)
        low[rows] = np.where(informative, m["num_low"] / den, -1.0)
        high[rows] = np.where(informative, m["num_high"] / den, 1.0)
    return low, high


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` with a zero denominator giving 0 or ±inf by the
    numerator's sign (the caller clips to ``[-1, 1]``)."""
    unbounded = np.where(num == 0.0, 0.0, np.copysign(np.inf, num))
    return np.where(den > 0.0, num / den, unbounded)


def hoeffding_intervals(
    x: np.ndarray,
    y: np.ndarray,
    indptr: np.ndarray,
    c_low: np.ndarray,
    c_high: np.ndarray,
    alpha: float = 0.05,
) -> tuple[np.ndarray, np.ndarray]:
    """The true ``1 − α`` Hoeffding interval for ρ (Eqs. 6–7) of every
    sample on a page, clipped to ``[-1, 1]``.

    Arguments as :func:`hfd_intervals`. ``c_low`` / ``c_high`` must
    bound the values for the coverage to hold (Section 4.3: the joined
    columns are subsets of the originals, so single-pass column min/max
    are valid bounds under a range-preserving aggregate). Vacuous when
    even the optimistic variance bound is zero: the data then carries no
    scale information and the quotient is unconstrained.
    """
    low, high = np.full(len(indptr) - 1, -1.0), np.full(len(indptr) - 1, 1.0)
    rows, defined, m = _shifted_moments(x, y, indptr, c_low, c_high, alpha)
    with np.errstate(**_QUIET):
        c2, t_prime = m["c"] * m["c"], m["t_prime"]

        def variance_bound(nu, mu):
            return np.maximum(0.0, nu - mu * mu)

        # ν's Hoeffding interval intersected with its domain [0, C²].
        den_low = np.sqrt(
            variance_bound(np.maximum(0.0, m["nu_a"] - t_prime), m["mu_a_high"])
            * variance_bound(np.maximum(0.0, m["nu_b"] - t_prime), m["mu_b_high"])
        )
        den_high = np.sqrt(
            variance_bound(np.minimum(c2, m["nu_a"] + t_prime), m["mu_a_low"])
            * variance_bound(np.minimum(c2, m["nu_b"] + t_prime), m["mu_b_low"])
        )
        informative = defined & (den_high > 0.0)
        # Eqs. 6-7's sign-aware division: a non-negative numerator bound
        # is smallest over the largest denominator, a negative one over
        # the smallest.
        num_low, num_high = m["num_low"], m["num_high"]
        q_low = np.where(
            num_low >= 0, _quotient(num_low, den_high), _quotient(num_low, den_low)
        )
        q_high = np.where(
            num_high >= 0, _quotient(num_high, den_low), _quotient(num_high, den_high)
        )
        low[rows] = np.where(informative, np.maximum(-1.0, q_low), -1.0)
        high[rows] = np.where(informative, np.minimum(1.0, q_high), 1.0)
    return low, high
