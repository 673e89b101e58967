"""High-level estimation façade over a pair of correlation sketches.

A sketch pair is a page of one: :func:`repro.core.joined_sample.join_pair`
joins it with the query pipeline's page kernel, and the §4.3 intervals
come from the same column kernels that score a candidate page
(:mod:`repro.bounds.hoeffding`).

:func:`estimate` runs the full Section 3.2 pipeline — join the sketches,
reconstruct the uniform sample, apply a correlation estimator — and
attaches everything the ranking layer needs: sample size, Fisher z
standard error, Hoeffding/HFD intervals, and the KMV-derived joinability
statistics (containment, join size) that Section 3.3 notes come for free.
:func:`set_estimates` computes those from the join's Eq. 1 statistics —
union, intersection (= join size), Jaccard and containment: a
correlation sketch retains everything a KMV synopsis supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bounds.hoeffding import hfd_intervals, hoeffding_intervals
from repro.bounds.intervals import ConfidenceInterval
from repro.core.aggregators import RANGE_PRESERVING_AGGREGATES
from repro.core.joined_sample import JoinedSample, PageJoin, join_pair
from repro.core.sketch import CorrelationSketch
from repro.correlation.estimators import get_estimator
from repro.correlation.fisher import clamped_fisher_se
from repro.kmv.estimators import containment_estimate_batch, unbiased_dv_estimate

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
    sets, from their page-of-one join.

    ``k`` is ``min(|L_A|, |L_B|)``, the retained sizes, exactly as a
    candidate page (:class:`repro.index.engine.CandidatePage`) takes it —
    it *is* that page's row, so the containment equals the served ``ĵc``
    bit for bit.

    Raises:
        ValueError: if the sketches use different hashing schemes.
    """
    return _set_estimates(left, right, join_pair(left, right))


def _set_estimates(
    left: CorrelationSketch, right: CorrelationSketch, joined: PageJoin
) -> SetEstimates:
    k, kth = int(joined.k_len[0]), float(joined.kth[0])
    k_inter, overlap = int(joined.k_inter[0]), int(joined.overlaps[0])
    inter = joined.intersections()
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
        exact=bool(joined.exact[0]),
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

    sample = join_pair(left, right).samples[0]
    return StatisticsResult(
        sample_size=sample.size,
        mutual_information=sample_mutual_information(sample.x, sample.y, bins=bins),
        entropy_x=sample_entropy(sample.x, bins=bins),
        entropy_y=sample_entropy(sample.y, bins=bins),
        distance_correlation=distance_correlation(sample.x, sample.y),
        pearson=pearson_fn(sample.x, sample.y),
    )


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
    joined = join_pair(left, right)
    page = joined.samples
    sample = page[0]
    n = sample.size

    # The page's bounds are the stored column ranges only when both
    # aggregates preserve the value range, else the sample's own.
    c_low, c_high = page.combined_ranges()
    bounds = (page.x, page.y, page.indptr, c_low, c_high, alpha)
    hoeffding = hoeffding_intervals(*bounds)
    hfd = hfd_intervals(*bounds)
    sets = _set_estimates(left, right, joined)

    return EstimateResult(
        correlation=fn(sample.x, sample.y),
        estimator=estimator,
        sample=sample,
        sample_size=n,
        fisher_se=clamped_fisher_se(n),
        hoeffding=ConfidenceInterval(
            float(hoeffding[0][0]), float(hoeffding[1][0]), alpha, "hoeffding"
        ),
        hfd=ConfidenceInterval(float(hfd[0][0]), float(hfd[1][0]), math.nan, "hfd"),
        key_overlap=sets.overlap,
        containment_est=sets.containment,
        join_size_est=sets.intersection,
        range_bounds_valid=(
            left.aggregate in RANGE_PRESERVING_AGGREGATES
            and right.aggregate in RANGE_PRESERVING_AGGREGATES
        ),
    )
