"""Distinct-value (DV) and Eq. 1 intersection estimators for bottom-k
synopses.

Section 2.1 of the paper reviews DV estimators that are functions of the
``k``-th smallest unit-interval hash value ``U(k)``; the one used
throughout is the *unbiased* estimator ``D_UB = (k - 1) / U(k)`` of
Beyer et al. (SIGMOD 2007), which is unbiased and has minimal variance
among DV estimators when ``D`` is large. When a synopsis saw fewer
distinct keys than its capacity, every key was retained and the exact
count is returned (Beyer et al.'s "small set" case).

Two synopses built with the same hashing scheme combine into the ``k``
smallest hashes of their union, ``k = min(|L_A|, |L_B|)``. With ``K∩``
of those present on both sides, the intersection cardinality is
``|K_A ∩ K_B| ≈ (K∩ / k) * (k - 1) / U(k)`` (Eq. 1 in the paper).
:func:`intersection_estimate_batch` is that arithmetic, vectorized over
many pairs with the same IEEE divisions and small-``k`` fallback as
:func:`unbiased_dv_estimate`; the query pipeline's candidate pages and
:func:`repro.core.estimation.set_estimates` both call it.
"""

from __future__ import annotations

import numpy as np


def unbiased_dv_estimate(k: int, kth_unit_value: float, *, saw_all: bool = False) -> float:
    """Unbiased DV estimator ``(k - 1) / U(k)`` (Beyer et al. 2007)."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0:
        return 0.0
    if saw_all:
        return float(k)
    if not 0.0 < kth_unit_value <= 1.0:
        raise ValueError(f"U(k) must lie in (0, 1], got {kth_unit_value}")
    if k == 1:
        # (k-1)/U(k) degenerates to 0; fall back to the basic estimator.
        return 1.0 / kth_unit_value
    return (k - 1) / kth_unit_value


def intersection_estimate_batch(
    k_len: np.ndarray,
    kth: np.ndarray,
    k_inter: np.ndarray,
    exact: np.ndarray,
    overlaps: np.ndarray,
) -> np.ndarray:
    """Eq. 1 intersection cardinalities over parallel arrays of pairs.

    Args:
        k_len: combined bottom-``k`` size of each pair, ``min(|L_A|,
            |L_B|)``; 0 where ``exact`` (or where a side is empty).
        kth: ``U(k)`` of each pair's combined bottom-``k``; read only
            where ``k_len > 0``.
        k_inter: ``K∩``, how many of the combined bottom-``k`` hashes
            are retained on both sides.
        exact: True where both synopses saw all their keys.
        overlaps: number of key hashes retained on both sides.

    Returns:
        float64 array: ``overlaps`` where ``exact``, else ``(K∩ / k) *
        D_UB(k, U(k))``; 0 where no key is shared or a non-exact pair
        has ``k_len == 0``.
    """
    live = k_len > 0
    if np.any(live & ~((kth > 0.0) & (kth <= 1.0))):
        raise ValueError("U(k) must lie in (0, 1] wherever it is used")
    # D_UB = (k - 1) / U(k); k == 1 degenerates to 0, so fall back to 1 / U(k).
    numerator = np.where(k_len == 1, 1.0, (k_len - 1).astype(np.float64))
    d_union = numerator / np.where(live, kth, 1.0)
    safe_len = np.maximum(k_len, 1).astype(np.float64)
    inter = (k_inter.astype(np.float64) / safe_len) * d_union
    inter = np.where(exact, overlaps.astype(np.float64), inter)
    zero = (~exact & ~live) | (overlaps <= 0)
    return np.where(zero, 0.0, inter)


def containment_estimate_batch(
    intersections: np.ndarray, d_query: float
) -> np.ndarray:
    """Containment ``|Q ∩ C| / |Q|`` of a query key set in each
    candidate, clipped to ``[0, 1]`` (the ``ĵc`` score of Section 5.4).

    Args:
        intersections: :func:`intersection_estimate_batch` of the
            (query, candidate) pairs.
        d_query: the query's distinct-key estimate; all zeros when it is
            not positive.
    """
    if d_query <= 0:
        return np.zeros(intersections.shape)
    return np.minimum(1.0, np.maximum(0.0, intersections / d_query))
