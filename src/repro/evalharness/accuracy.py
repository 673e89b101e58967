"""Estimate-vs-truth accuracy sweeps (Figures 3a–3d).

For each sampled combination of column pairs the harness:

1. builds both correlation sketches (size ``sketch_size``),
2. estimates the after-join correlation from the sketch join (a page
   of one, :func:`repro.core.joined_sample.join_pair`),
3. computes the *actual* after-join correlation with a full join,
4. records both plus the sketch-join sample size.

The resulting :class:`AccuracyRecord` stream is what the paper scatters in
Figure 3 (estimate on y, truth on x) and aggregates into RMSE curves in
Figure 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.joined_sample import join_pair
from repro.core.sketch import CorrelationSketch
from repro.correlation.estimators import get_estimator, population_reference
from repro.data.sbn import SBNPair
from repro.data.workloads import PairRef
from repro.table.join import join_tables, true_correlation


@dataclass(frozen=True)
class AccuracyRecord:
    """One estimate/truth observation.

    Attributes:
        pair_id: identifier of the column-pair combination.
        estimate: sketch-based correlation estimate.
        truth: full-join correlation (the paper's "actual" value).
        sample_size: sketch-join sample size (NaN-filtered).
        join_size: full-join row count (after aggregation).
    """

    pair_id: str
    estimate: float
    truth: float
    sample_size: int
    join_size: int

    @property
    def error(self) -> float:
        return self.estimate - self.truth

    def is_valid(self) -> bool:
        """True when both estimate and truth are defined."""
        return not (math.isnan(self.estimate) or math.isnan(self.truth))


def evaluate_pair_refs(
    combinations: Iterable[tuple[PairRef, PairRef]],
    *,
    sketch_size: int,
    estimator: str = "pearson",
    aggregate: str = "mean",
    min_sample: int = 3,
) -> Iterator[AccuracyRecord]:
    """Run the accuracy protocol over column-pair combinations.

    Records with sketch-join samples smaller than ``min_sample`` (the
    paper plots ``n ≥ 3``) or undefined truth are skipped.
    """
    fn = get_estimator(estimator)
    reference = population_reference(estimator)
    for left_ref, right_ref in combinations:
        left = CorrelationSketch.from_columns(
            [k for k in left_ref.table.categorical(left_ref.pair.key).values],
            left_ref.table.numeric(left_ref.pair.value).values,
            sketch_size,
            aggregate=aggregate,
        )
        right = CorrelationSketch.from_columns(
            [k for k in right_ref.table.categorical(right_ref.pair.key).values],
            right_ref.table.numeric(right_ref.pair.value).values,
            sketch_size,
            aggregate=aggregate,
        )
        sample = join_pair(left, right).samples[0]
        if sample.size < min_sample:
            continue
        estimate = fn(sample.x, sample.y)

        join = join_tables(
            left_ref.table, left_ref.pair, right_ref.table, right_ref.pair,
            aggregate=aggregate,
        )
        truth = true_correlation(join, reference)
        record = AccuracyRecord(
            pair_id=f"{left_ref.pair_id}|{right_ref.pair_id}",
            estimate=estimate,
            truth=truth,
            sample_size=sample.size,
            join_size=join.drop_nan().size,
        )
        if record.is_valid():
            yield record


def evaluate_sbn_pairs(
    pairs: Iterable[SBNPair],
    *,
    sketch_size: int,
    estimator: str = "pearson",
    min_sample: int = 3,
) -> Iterator[AccuracyRecord]:
    """Accuracy protocol over SBN table pairs (keys are never repeated)."""
    fn = get_estimator(estimator)
    reference = population_reference(estimator)
    for i, pair in enumerate(pairs):
        x_pair = pair.table_x.column_pairs()[0]
        y_pair = pair.table_y.column_pairs()[0]
        left = CorrelationSketch.from_columns(
            pair.table_x.categorical(x_pair.key).values,
            pair.table_x.numeric(x_pair.value).values,
            sketch_size,
        )
        right = CorrelationSketch.from_columns(
            pair.table_y.categorical(y_pair.key).values,
            pair.table_y.numeric(y_pair.value).values,
            sketch_size,
        )
        sample = join_pair(left, right).samples[0]
        if sample.size < min_sample:
            continue
        estimate = fn(sample.x, sample.y)
        join = join_tables(pair.table_x, x_pair, pair.table_y, y_pair)
        truth = true_correlation(join, reference)
        record = AccuracyRecord(
            pair_id=f"sbn_{i}",
            estimate=estimate,
            truth=truth,
            sample_size=sample.size,
            join_size=join.drop_nan().size,
        )
        if record.is_valid():
            yield record


@dataclass(frozen=True)
class AccuracySummary:
    """Aggregate statistics of an accuracy sweep (one Figure 3 panel)."""

    count: int
    rmse: float
    mean_abs_error: float
    max_abs_error: float
    overestimates_at_zero: int

    @classmethod
    def from_records(
        cls, records: list[AccuracyRecord], *, zero_band: float = 0.1
    ) -> "AccuracySummary":
        """Summarize records; also counts the Figure 3 'vertical line'
        artifact (|truth| < ``zero_band`` but |estimate| > 0.5)."""
        valid = [r for r in records if r.is_valid()]
        if not valid:
            return cls(0, math.nan, math.nan, math.nan, 0)
        errors = [r.error for r in valid]
        sq = sum(e * e for e in errors) / len(errors)
        overs = sum(
            1
            for r in valid
            if abs(r.truth) < zero_band and abs(r.estimate) > 0.5
        )
        return cls(
            count=len(valid),
            rmse=math.sqrt(sq),
            mean_abs_error=sum(abs(e) for e in errors) / len(errors),
            max_abs_error=max(abs(e) for e in errors),
            overestimates_at_zero=overs,
        )
