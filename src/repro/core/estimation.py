"""High-level estimation façade over a pair of correlation sketches.

:func:`estimate` runs the full Section 3.2 pipeline — join the sketches,
reconstruct the uniform sample, apply a correlation estimator — and
attaches everything the ranking layer needs: sample size, Fisher z
standard error, Hoeffding/HFD intervals, and the KMV-derived joinability
statistics (containment, join size) that Section 3.3 notes come for free.
:func:`set_estimates` computes those from the two sketches' columns —
union, intersection (= join size), Jaccard and containment: a
correlation sketch retains everything a KMV synopsis supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.bounds.hoeffding import hfd_interval, hoeffding_interval
from repro.bounds.intervals import ConfidenceInterval
from repro.core.joined_sample import JoinedSample, join_sketches
from repro.core.sketch import CorrelationSketch
from repro.correlation.estimators import get_estimator
from repro.correlation.fisher import clamped_fisher_se
from repro.hashing.fibonacci import to_unit_interval_batch
from repro.kmv.estimators import (
    containment_estimate_batch,
    intersection_estimate_batch,
    unbiased_dv_estimate,
)

#: Aggregates whose output always lies within the input value range, making
#: the single-pass column min/max valid Hoeffding bounds (Section 4.3).
RANGE_PRESERVING_AGGREGATES = frozenset({"mean", "max", "min", "first", "last"})


@dataclass(frozen=True)
class EstimateResult:
    """Everything estimable from one pair of sketches.

    Attributes:
        correlation: the correlation estimate (NaN if undefined).
        estimator: name of the estimator used.
        sample: the reconstructed joined sample (after NaN filtering).
        sample_size: rows in the sketch join (the paper's ``n``).
        fisher_se: clamped Fisher z standard error ``1/sqrt(max(4,n)−3)``.
        hoeffding: true distribution-free interval (Eqs. 6–7).
        hfd: small-sample HFD interval (drives the ``cih`` ranking factor).
        key_overlap: number of common key hashes between the two sketches.
        containment_est: estimated Jaccard containment of the left key set
            in the right one (the ``ĵc`` baseline).
        join_size_est: estimated number of rows in the full joined table.
        range_bounds_valid: False when a non-range-preserving aggregate
            (``sum``/``count``) makes the stored column min/max invalid as
            Hoeffding bounds — intervals then use the observed sample range
            and are best-effort rather than certified.
    """

    correlation: float
    estimator: str
    sample: JoinedSample
    sample_size: int
    fisher_se: float
    hoeffding: ConfidenceInterval
    hfd: ConfidenceInterval
    key_overlap: int
    containment_est: float
    join_size_est: float
    range_bounds_valid: bool


@dataclass(frozen=True)
class SetEstimates:
    """Section 3.3's KMV statistics of a sketch pair ``(A, B)``.

    Attributes:
        k: size of the combined bottom-``k``, ``min(|L_A|, |L_B|)``; 0
            when both sketches saw all their keys (the estimates are
            then exact) or one sketch is empty.
        kth_unit_value: ``U(k)``, the ``k``-th smallest unit hash of
            ``L_A ∪ L_B`` (1.0 when ``k`` is 0).
        k_inter: ``K∩``, the combined bottom-``k`` hashes retained on
            both sides.
        exact: True when both sketches saw all their keys.
        overlap: key hashes retained on both sides.
        union: estimated ``|K_A ∪ K_B|``.
        intersection: estimated ``|K_A ∩ K_B|`` (Eq. 1). With per-key
            aggregation the joined table has one row per shared key, so
            this is also the join size.
        jaccard: estimated ``|K_A ∩ K_B| / |K_A ∪ K_B|``.
        containment: estimated ``|K_A ∩ K_B| / |K_A|``, clipped to
            ``[0, 1]`` (the ``ĵc`` baseline).
    """

    k: int
    kth_unit_value: float
    k_inter: int
    exact: bool
    overlap: int
    union: float
    intersection: float
    jaccard: float
    containment: float


def set_estimates(left: CorrelationSketch, right: CorrelationSketch) -> SetEstimates:
    """Union, intersection, Jaccard and containment of two sketches' key
    sets, computed on their sorted key-hash columns.

    ``k`` is ``min(|L_A|, |L_B|)``, the retained sizes, exactly as a
    candidate page (:class:`repro.index.engine.CandidatePage`) takes it,
    and the intersection goes through the same Eq. 1 kernel, so the
    containment equals the served ``ĵc`` bit for bit.

    Raises:
        ValueError: if the sketches use different hashing schemes.
    """
    if left.hasher.scheme_id != right.hasher.scheme_id:
        raise ValueError(
            "cannot combine sketches built with different hashing schemes: "
            f"{left.hasher!r} vs {right.hasher!r}"
        )
    lc, rc = left.columnar(), right.columnar()
    shared = np.isin(lc.key_hashes, rc.key_hashes, assume_unique=True)
    overlap = int(np.count_nonzero(shared))
    exact = lc.saw_all_keys and rc.saw_all_keys
    k = 0 if exact else min(lc.size, rc.size)
    kth, k_inter = 1.0, 0
    if k > 0:
        union_ranks = to_unit_interval_batch(
            np.union1d(lc.key_hashes, rc.key_hashes), lc.bits
        )
        kth = float(np.partition(union_ranks, k - 1)[k - 1])
        shared_ranks = to_unit_interval_batch(lc.key_hashes[shared], lc.bits)
        k_inter = int(np.count_nonzero(shared_ranks <= kth))

    inter = intersection_estimate_batch(
        *(np.array([v]) for v in (k, kth, k_inter, exact, overlap))
    )
    d_left = left.distinct_keys()
    if k == 0:
        # Both sides exact, or one empty: the union is plain counting.
        union = d_left + right.distinct_keys() - overlap
        jaccard = float(inter[0]) / union if union > 0 else 0.0
    else:
        union = unbiased_dv_estimate(k, kth)
        jaccard = k_inter / k
    return SetEstimates(
        k=k,
        kth_unit_value=kth,
        k_inter=k_inter,
        exact=exact,
        overlap=overlap,
        union=union,
        intersection=float(inter[0]),
        jaccard=jaccard,
        containment=float(containment_estimate_batch(inter, d_left)[0]),
    )


@dataclass(frozen=True)
class StatisticsResult:
    """Sample statistics beyond correlation (the Section 3.3 claim).

    All values are plug-in estimates computed from the uniform joined
    sample the sketches reconstruct; NaN when the sample is too small.

    Attributes:
        sample_size: rows in the NaN-filtered sketch join.
        mutual_information: plug-in MI in nats (captures *any* dependence,
            including non-monotone ones Pearson misses).
        entropy_x, entropy_y: plug-in marginal entropies in nats.
        distance_correlation: sample distance correlation (Székely et al.).
        pearson: Pearson's r on the same sample, for comparison.
    """

    sample_size: int
    mutual_information: float
    entropy_x: float
    entropy_y: float
    distance_correlation: float
    pearson: float


def estimate_statistics(
    left: CorrelationSketch,
    right: CorrelationSketch,
    *,
    bins: int | None = None,
) -> StatisticsResult:
    """Estimate information-theoretic statistics from a sketch join.

    Theorem 1 makes the sketch join a uniform random sample of the joined
    table, so any statistic with a consistent sample estimator applies —
    the paper names entropy and mutual information explicitly. This is
    the companion to :func:`estimate` for non-correlation statistics.

    Args:
        left, right: the two column-pair sketches.
        bins: histogram bin count for the entropy / MI plug-in estimators
            (Freedman-Diaconis per column when None). Fix it explicitly
            when comparing entropies across columns — plug-in entropy is
            only comparable at a common bin count.
    """
    from repro.core.statistics import (
        distance_correlation,
        sample_entropy,
        sample_mutual_information,
    )
    from repro.correlation.pearson import pearson as pearson_fn

    sample = join_sketches(left, right).drop_nan()
    return StatisticsResult(
        sample_size=sample.size,
        mutual_information=sample_mutual_information(sample.x, sample.y, bins=bins),
        entropy_x=sample_entropy(sample.x, bins=bins),
        entropy_y=sample_entropy(sample.y, bins=bins),
        distance_correlation=distance_correlation(sample.x, sample.y),
        pearson=pearson_fn(sample.x, sample.y),
    )


def _sample_range(sample: JoinedSample) -> tuple[float, float]:
    """Observed combined min/max of the joined sample values."""
    if sample.size == 0:
        return (math.nan, math.nan)
    lo = min(float(sample.x.min()), float(sample.y.min()))
    hi = max(float(sample.x.max()), float(sample.y.max()))
    return (lo, hi)


def estimate(
    left: CorrelationSketch,
    right: CorrelationSketch,
    estimator: str = "pearson",
    alpha: float = 0.05,
) -> EstimateResult:
    """Estimate the after-join correlation between two sketched columns.

    Args:
        left: sketch of the query column pair ``⟨K_X, X⟩``.
        right: sketch of a candidate column pair ``⟨K_Y, Y⟩``.
        estimator: one of :data:`repro.correlation.ESTIMATORS`.
        alpha: miscoverage for the Hoeffding intervals.

    Raises:
        ValueError: if the sketches use different hashing schemes or the
            estimator name is unknown.
    """
    fn = get_estimator(estimator)
    sample = join_sketches(left, right).drop_nan()

    r = fn(sample.x, sample.y)
    n = sample.size

    range_ok = (
        left.aggregate in RANGE_PRESERVING_AGGREGATES
        and right.aggregate in RANGE_PRESERVING_AGGREGATES
    )
    if range_ok:
        c_low, c_high = sample.combined_range()
    else:
        c_low, c_high = _sample_range(sample)

    hoeff = hoeffding_interval(sample.x, sample.y, c_low, c_high, alpha)
    hfd = hfd_interval(sample.x, sample.y, c_low, c_high, alpha)
    sets = set_estimates(left, right)

    return EstimateResult(
        correlation=r,
        estimator=estimator,
        sample=sample,
        sample_size=n,
        fisher_se=clamped_fisher_se(n),
        hoeffding=hoeff,
        hfd=hfd,
        key_overlap=sets.overlap,
        containment_est=sets.containment,
        join_size_est=sets.intersection,
        range_bounds_valid=range_ok,
    )
