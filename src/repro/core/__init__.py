"""The paper's primary contribution: Correlation Sketches.

* :class:`~repro.core.sketch.CorrelationSketch` — single-pass bottom-``n``
  sketch of a ``⟨key, value⟩`` column pair (Section 3.1).
* :func:`~repro.core.joined_sample.join_sketches` — sketch join
  reconstructing a uniform random sample of the joined table (Theorem 1).
* :func:`~repro.core.estimation.estimate` — the full estimation pipeline:
  join, correlate, attach error bounds and joinability statistics.
* :func:`~repro.core.estimation.set_estimates` — the KMV statistics of a
  sketch pair: union, intersection (= join size), Jaccard, containment.
* :meth:`CorrelationSketch.from_key_column
  <repro.core.sketch.CorrelationSketch.from_key_column>` — the
  shared-key-selection build for tables with several numeric columns
  (Section 3.1, last paragraph).
* :mod:`repro.core.statistics` — entropy / mutual information / distance
  correlation estimators demonstrating the Section 3.3 flexibility claim.
"""

from repro.core.aggregators import AGGREGATORS, Aggregator, make_aggregator
from repro.core.estimation import (
    RANGE_PRESERVING_AGGREGATES,
    EstimateResult,
    SetEstimates,
    StatisticsResult,
    estimate,
    estimate_statistics,
    set_estimates,
)
from repro.core.gkmv import ThresholdSketch
from repro.core.joined_sample import JoinedSample, JoinedSamplePage, join_sketches
from repro.core.multiaggregate import MultiAggregateSketch
from repro.core.sketch import CorrelationSketch
from repro.core.statistics import (
    distance_correlation,
    sample_entropy,
    sample_mutual_information,
)

__all__ = [
    "AGGREGATORS",
    "Aggregator",
    "CorrelationSketch",
    "EstimateResult",
    "JoinedSample",
    "JoinedSamplePage",
    "MultiAggregateSketch",
    "RANGE_PRESERVING_AGGREGATES",
    "SetEstimates",
    "StatisticsResult",
    "ThresholdSketch",
    "distance_correlation",
    "estimate",
    "estimate_statistics",
    "join_sketches",
    "make_aggregator",
    "sample_entropy",
    "sample_mutual_information",
    "set_estimates",
]
