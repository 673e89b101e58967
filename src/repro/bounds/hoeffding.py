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

Both are column kernels over a page's one centered moment pass
(:func:`repro.correlation.pearson.page_moments`, the seven reductions
Pearson's ``r`` reads; a second, raw pass of five used to run) and
per-sample bounds ``c_low``, ``c_high``. The shifted parameters are
derived, μ_A = x̄ − C_low, ν_A = s_xx/n + μ_A², ν_AB = s_xy/n + μ_A·μ_B,
and the HFD denominator is the centered √(s_xx/n)·√(s_yy/n), never the
cancelling ν_A − μ_A² (which lost every digit at 1e8 + N). μ_A keeps
x̄'s rounding, a relative error near ε·|x̄|/C when both columns sit far
from zero relative to their range. A sample gets the vacuous ``[-1, 1]``
when it is empty, its bounds are unknown, inverted or equal, or ``C²``
or a parameter is not a finite float64 (magnitudes around 1.3e154 and
beyond); the HFD interval also when a column is numerically constant.
The scalar raw-moment functions these replaced are the test oracle
``tests/sketch_join_oracle.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.correlation.pearson import PageMoments

#: Overflow to ±inf and the NaN it breeds are handled by the per-row
#: guard and the zero-denominator rules, never reported.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


def _shifted_parameters(
    moments: PageMoments,
    c_low: np.ndarray,
    c_high: np.ndarray,
    alpha: float,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """What both intervals share, over the non-empty samples
    (``moments.rows``), derived from the moment pass.

    Returns ``(defined, m)``: which rows have usable bounds and
    parameters (False where the interval is vacuous by the bounds alone
    — unknown, inverted or equal — or by overflow, the per-row guard),
    and per row the range ``c``, the radius ``t'``, the sample variances
    ``s_xx/n``, ``s_yy/n``, the five parameters of both columns shifted
    into ``[0, C]`` and Eq. 6's numerator bounds with the clamped means
    they use. The shifted columns live in ``[0, C]``, so every population
    parameter is confined to a known domain (means in ``[0, C]``, second
    moments in ``[0, C²]``); intersecting the Hoeffding intervals with
    those domains preserves coverage and is *required* for the
    numerator: ``-μ_Aμ_B`` is only monotone in ``(μ_A, μ_B)`` on the
    non-negative orthant.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    rows, n, ex, ey = moments.rows, moments.n, moments.exp_x, moments.exp_y
    clo, chi = c_low[rows], c_high[rows]
    with np.errstate(**_QUIET):
        # The pass's scaling undone exactly; past float64's range, ±inf.
        mu_a = np.ldexp(moments.mean_x, ex) - clo
        mu_b = np.ldexp(moments.mean_y, ey) - clo
        var_x = np.ldexp(moments.sxx / n, 2 * ex)
        var_y = np.ldexp(moments.syy / n, 2 * ey)
        nu_a, nu_b = var_x + mu_a * mu_a, var_y + mu_b * mu_b
        nu_ab = np.ldexp(moments.sxy / n, ex + ey) + mu_a * mu_b
        c = chi - clo
        c2 = c * c
        log_term = math.log(10.0 / alpha)
        t = np.sqrt(log_term * c2 / (2.0 * n))
        t_prime = np.sqrt(log_term * c2 * c2 / (2.0 * n))
        defined = ~(np.isnan(clo) | np.isnan(chi) | (chi < clo) | (c == 0.0))
        for value in (c2, mu_a, mu_b, nu_a, nu_b, nu_ab):
            defined &= np.isfinite(value)
        mu_a_low, mu_a_high = np.maximum(0.0, mu_a - t), np.minimum(c, mu_a + t)
        mu_b_low, mu_b_high = np.maximum(0.0, mu_b - t), np.minimum(c, mu_b + t)
        m = dict(
            c=c, t_prime=t_prime, var_x=var_x, var_y=var_y, nu_a=nu_a, nu_b=nu_b,
            mu_a_low=mu_a_low, mu_a_high=mu_a_high,
            mu_b_low=mu_b_low, mu_b_high=mu_b_high,
            num_low=np.maximum(0.0, nu_ab - t_prime) - mu_a_high * mu_b_high,
            num_high=np.minimum(c2, nu_ab + t_prime) - mu_a_low * mu_b_low,
        )
    return defined, m


def hfd_intervals(
    moments: PageMoments,
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
        moments: the page's moment pass
            (:func:`~repro.correlation.pearson.page_moments`).
        c_low, c_high: per-sample value bounds over both columns
            (:meth:`~repro.core.joined_sample.JoinedSamplePage.combined_ranges`).
        alpha: total miscoverage level.
    """
    low, high = np.full(moments.count, -1.0), np.full(moments.count, 1.0)
    defined, m = _shifted_parameters(moments, c_low, c_high, alpha)
    with np.errstate(**_QUIET):
        den = np.sqrt(m["var_x"]) * np.sqrt(m["var_y"])
        # Both denominator bounds equal the sample-SD product, so the
        # sign-aware interval quotient (Eqs. 6-7) is plain division.
        informative = defined & moments.varies & (den > 0.0)
        rows = moments.rows
        low[rows] = np.where(informative, m["num_low"] / den, -1.0)
        high[rows] = np.where(informative, m["num_high"] / den, 1.0)
    return low, high


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` with a zero denominator giving 0 or ±inf by the
    numerator's sign (the caller clips to ``[-1, 1]``)."""
    unbounded = np.where(num == 0.0, 0.0, np.copysign(np.inf, num))
    return np.where(den > 0.0, num / den, unbounded)


def hoeffding_intervals(
    moments: PageMoments,
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
    low, high = np.full(moments.count, -1.0), np.full(moments.count, 1.0)
    defined, m = _shifted_parameters(moments, c_low, c_high, alpha)
    rows = moments.rows
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
