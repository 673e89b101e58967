"""Distinct-value (DV) estimators for bottom-k synopses.

Section 2.1 of the paper reviews two estimators, both functions of the
``k``-th smallest unit-interval hash value ``U(k)``:

* the *basic* estimator ``D_BE = k / U(k)`` — the method-of-moments
  estimator obtained from ``E[U(k)] ≈ k / D``;
* the *unbiased* estimator ``D_UB = (k - 1) / U(k)`` of Beyer et al.
  (SIGMOD 2007), which is unbiased and has minimal variance among DV
  estimators when ``D`` is large.

When a synopsis saw fewer distinct keys than its capacity, every key was
retained and the exact count is returned (this matches Beyer et al.'s
treatment of the "small set" case).

:func:`unbiased_dv_estimate_batch` is the vectorized form the query
pipeline uses to estimate all candidates' intersection
cardinalities in one call; it is elementwise bit-identical to
:func:`unbiased_dv_estimate` (same IEEE divisions, same small-``k``
fallbacks).
"""

from __future__ import annotations

import numpy as np


def basic_dv_estimate(k: int, kth_unit_value: float, *, saw_all: bool = False) -> float:
    """Basic DV estimator ``k / U(k)``.

    Args:
        k: number of retained minimum hash values.
        kth_unit_value: ``U(k)``, the k-th smallest unit-interval hash.
        saw_all: True when the synopsis never overflowed — the retained
            keys *are* the distinct keys and ``k`` is returned exactly.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0:
        return 0.0
    if saw_all:
        return float(k)
    if not 0.0 < kth_unit_value <= 1.0:
        raise ValueError(f"U(k) must lie in (0, 1], got {kth_unit_value}")
    return k / kth_unit_value


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


def unbiased_dv_estimate_batch(
    k: np.ndarray, kth_unit_values: np.ndarray, saw_all: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`unbiased_dv_estimate` over parallel arrays.

    Args:
        k: integer array of retained-hash counts (non-negative).
        kth_unit_values: parallel ``U(k)`` array; entries are only read
            where ``k > 0`` and ``saw_all`` is False, and must lie in
            ``(0, 1]`` there.
        saw_all: parallel boolean array — True where the synopsis never
            overflowed (the exact count ``k`` is returned).

    Returns:
        float64 array; element ``i`` equals
        ``unbiased_dv_estimate(k[i], kth_unit_values[i], saw_all=saw_all[i])``
        bit for bit.
    """
    k = np.asarray(k, dtype=np.int64)
    kth = np.asarray(kth_unit_values, dtype=np.float64)
    saw_all = np.asarray(saw_all, dtype=bool)
    if k.shape != kth.shape or k.shape != saw_all.shape:
        raise ValueError(
            f"shape mismatch: k {k.shape}, U(k) {kth.shape}, saw_all {saw_all.shape}"
        )
    if (k < 0).any():
        raise ValueError("k must be non-negative")
    needs_kth = (k > 0) & ~saw_all
    if np.any(needs_kth & ~((kth > 0.0) & (kth <= 1.0))):
        raise ValueError("U(k) must lie in (0, 1] wherever it is used")

    safe_kth = np.where(needs_kth, kth, 1.0)
    # k == 1 degenerates to 0 under (k-1)/U(k); fall back to 1/U(k).
    numerator = np.where(k == 1, 1.0, (k - 1).astype(np.float64))
    estimates = numerator / safe_kth
    out = np.where(saw_all, k.astype(np.float64), estimates)
    return np.where(k == 0, 0.0, out)


def unbiased_dv_variance(k: int, distinct: float) -> float:
    """Approximate variance of the unbiased estimator.

    Beyer et al. (2007) give ``Var[D_UB] ≈ D * (D - k + 1) / (k - 2)`` for
    ``k > 2``; we expose it so callers can attach error bars to cardinality
    estimates (used by the ablation benchmarks).
    """
    if k <= 2:
        return float("inf")
    return distinct * (distinct - k + 1) / (k - 2)
