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

Both read a page's one centered moment pass
(:func:`repro.correlation.pearson.page_moments`, the reductions
Pearson's ``r`` reads plus the means' two-pass corrections) and
per-sample bounds ``c_low``, ``c_high``. The HFD interval, which scores
every served candidate, is a column kernel over the page; the true
interval, which only a pair's estimate reads, is computed sample by
sample in Python floats with the same operations. The shifted parameters are
derived, μ_A = x̄ − C_low, ν_A = s_xx/n + μ_A², ν_AB = s_xy/n + μ_A·μ_B,
and the HFD denominator is the centered √(s_xx/n)·√(s_yy/n), never the
cancelling ν_A − μ_A² (which lost every digit at 1e8 + N). μ_A adds the
pass's two-pass correction Σ(x − x̄)/n after the shift, so x̄'s rounding
(a relative error near ε·|x̄|/C when a column sits far from zero
relative to its range) does not reach it. A sample gets the vacuous ``[-1, 1]``
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
    """What the HFD interval reads, over the non-empty samples
    (``moments.rows``), derived from the moment pass.

    Returns ``(defined, m)``: which rows have usable bounds and
    parameters (False where the interval is vacuous by the bounds alone
    — unknown, inverted or equal — or by overflow, the per-row guard),
    and per row the sample variances ``s_xx/n``, ``s_yy/n`` and Eq. 6's
    numerator bounds. The shifted columns live in ``[0, C]``, so every
    population parameter is confined to a known domain (means in
    ``[0, C]``, second moments in ``[0, C²]``); intersecting the
    Hoeffding intervals with those domains preserves coverage and is
    *required* for the numerator: ``-μ_Aμ_B`` is only monotone in
    ``(μ_A, μ_B)`` on the non-negative orthant. :func:`_hoeffding_one`
    derives the same values for one sample in Python floats.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    rows, n, ex, ey = moments.rows, moments.n, moments.exp_x, moments.exp_y
    clo, chi = c_low[rows], c_high[rows]
    with np.errstate(**_QUIET):
        # The pass's scaling undone exactly; past float64's range, ±inf.
        # The two-pass correction is added after the shift, where it is
        # not rounded away against a mean far from zero.
        mu_a = (np.ldexp(moments.mean_x, ex) - clo) + np.ldexp(moments.dmean_x, ex)
        mu_b = (np.ldexp(moments.mean_y, ey) - clo) + np.ldexp(moments.dmean_y, ey)
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
            var_x=var_x, var_y=var_y,
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

    Only a pair's ``estimate()`` reads the true interval, on a page of
    one, so it is computed sample by sample in Python floats
    (:func:`_hoeffding_one`): about ten times cheaper there than a NumPy
    column kernel, whose per-call cost on one-element arrays is most of
    its time.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    log_term = math.log(10.0 / alpha)
    m, rows = moments, moments.rows
    low, high = np.full(m.count, -1.0), np.full(m.count, 1.0)
    for row, *sample in zip(
        rows.tolist(), c_low[rows].tolist(), c_high[rows].tolist(), m.n.tolist(),
        m.mean_x.tolist(), m.mean_y.tolist(), m.dmean_x.tolist(), m.dmean_y.tolist(),
        m.sxx.tolist(), m.syy.tolist(), m.sxy.tolist(), m.exp_x.tolist(), m.exp_y.tolist(),
    ):
        low[row], high[row] = _hoeffding_one(*sample, log_term)
    return low, high


def _quotient(num: float, den: float) -> float:
    """``num / den``; over a zero denominator 0 or ±inf by the
    numerator's sign (the caller clips to ``[-1, 1]``)."""
    if den > 0.0:
        return num / den
    return 0.0 if num == 0.0 else math.copysign(math.inf, num)


def _hoeffding_one(
    clo: float, chi: float, n: float,
    mean_x: float, mean_y: float, dmean_x: float, dmean_y: float,
    sxx: float, syy: float, sxy: float, ex: int, ey: int, log_term: float,
) -> tuple[float, float]:
    """Eqs. 6–7 for one non-empty sample with bounds ``clo``, ``chi``,
    from its row of the moment pass and ``ln(10/α)``: the means of
    :func:`_shifted_parameters`, centered moments less the rounded means'
    offset (s_xy/n − Δx̄·Δȳ, which an endpoint near zero cannot ignore),
    then the numerator and denominator bounds. Every value is finite once
    the guard has passed, so ``max`` and ``min`` never meet a NaN."""
    try:
        mu_a = (math.ldexp(mean_x, ex) - clo) + math.ldexp(dmean_x, ex)
        mu_b = (math.ldexp(mean_y, ey) - clo) + math.ldexp(dmean_y, ey)
        nu_a = math.ldexp(sxx / n - dmean_x * dmean_x, 2 * ex) + mu_a * mu_a
        nu_b = math.ldexp(syy / n - dmean_y * dmean_y, 2 * ey) + mu_b * mu_b
        cov = math.ldexp(sxy / n - dmean_x * dmean_y, ex + ey)
        nu_ab = cov + mu_a * mu_b
    except OverflowError:  # past float64's range: the per-row guard
        return -1.0, 1.0
    c = chi - clo
    c2 = c * c
    t = math.sqrt(log_term * c2 / (2.0 * n))
    t_prime = math.sqrt(log_term * c2 * c2 / (2.0 * n))
    # c > 0 fails on unknown, inverted or equal bounds.
    if not (c > 0.0 and all(map(math.isfinite, (c2, mu_a, mu_b, nu_a, nu_b, nu_ab)))):
        return -1.0, 1.0
    mu_a_low, mu_a_high = max(0.0, mu_a - t), min(c, mu_a + t)
    mu_b_low, mu_b_high = max(0.0, mu_b - t), min(c, mu_b + t)
    # Eq. 6's numerator: ν_AB − μ_A·μ_B is the centered covariance, so
    # where ν_AB's domain clamp does not bind only the means' moves
    # (μ^high − μ = min(C − μ, t), μ − μ^low = min(μ, t)) are added to
    # it, never the O(C²) μ_A·μ_B that would cancel in the rounding.
    num_low = -(mu_a_high * mu_b_high)
    if nu_ab > t_prime:
        moves = mu_a_high * min(c - mu_b, t) + min(c - mu_a, t) * mu_b
        num_low = (cov - t_prime) - moves
    num_high = c2 - mu_a_low * mu_b_low
    if nu_ab + t_prime < c2:
        moves = mu_a_low * min(mu_b, t) + min(mu_a, t) * mu_b
        num_high = (cov + t_prime) + moves
    # ν's Hoeffding interval intersected with its domain [0, C²], less
    # the squared mean bound that makes the variance smallest (largest).
    den_low = math.sqrt(
        max(0.0, max(0.0, nu_a - t_prime) - mu_a_high * mu_a_high)
        * max(0.0, max(0.0, nu_b - t_prime) - mu_b_high * mu_b_high)
    )
    den_high = math.sqrt(
        max(0.0, min(c2, nu_a + t_prime) - mu_a_low * mu_a_low)
        * max(0.0, min(c2, nu_b + t_prime) - mu_b_low * mu_b_low)
    )
    if not den_high > 0.0:
        return -1.0, 1.0
    # Eqs. 6-7's sign-aware division: a non-negative numerator bound is
    # smallest over the largest denominator, a negative one over the
    # smallest.
    q_low = _quotient(num_low, den_high if num_low >= 0 else den_low)
    q_high = _quotient(num_high, den_low if num_high >= 0 else den_high)
    return max(-1.0, q_low), min(1.0, q_high)
