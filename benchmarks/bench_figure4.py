"""Figure 4 — RMSE vs sketch-intersection size per estimator and size.

For each sampled column-pair combination from the NYC-like collection,
builds sketches at several maximum sizes (the figure's ``k`` rows),
reconstructs the joined sample once per size, applies every correlation
estimator from Section 5.3, and compares against the population value of
the statistic that estimator targets (Pearson for pearson/qn/pm1, the
transformed correlation for spearman/rin). Records are bucketed by
intersection size and reported as RMSE series.

Expected shape: RMSE decreases as the intersection grows, stabilising
near ~0.1, for every estimator and every maximum sketch size; Qn is the
least stable line.
"""

from __future__ import annotations

import math

import pytest

from conftest import write_result
from repro.core.joined_sample import join_pair
from repro.core.sketch import CorrelationSketch
from repro.correlation.estimators import ESTIMATORS, get_estimator, population_reference
from repro.data.workloads import sample_combinations
from repro.evalharness.accuracy import AccuracyRecord
from repro.evalharness.rmse import format_rmse_table, overall_rmse, rmse_by_sample_size

SKETCH_SIZES = (64, 256, 1024)
ESTIMATOR_NAMES = tuple(sorted(ESTIMATORS))
N_COMBOS = 150


def _collect_records(refs):
    """records[(sketch_size, estimator)] -> list[AccuracyRecord]."""
    from repro.table.join import join_tables

    combos = sample_combinations(refs, N_COMBOS, seed=11)
    records: dict[tuple[int, str], list[AccuracyRecord]] = {
        (size, name): [] for size in SKETCH_SIZES for name in ESTIMATOR_NAMES
    }
    for idx, (left_ref, right_ref) in enumerate(combos):
        join = join_tables(
            left_ref.table, left_ref.pair, right_ref.table, right_ref.pair
        )
        clean = join.drop_nan()
        if clean.size < 3:
            continue
        truths = {
            name: population_reference(name)(clean.x, clean.y)
            for name in ("pearson", "spearman", "rin")
        }
        truths["qn"] = truths["pearson"]
        truths["pm1"] = truths["pearson"]

        left_keys = left_ref.table.categorical(left_ref.pair.key).values
        left_vals = left_ref.table.numeric(left_ref.pair.value).values
        right_keys = right_ref.table.categorical(right_ref.pair.key).values
        right_vals = right_ref.table.numeric(right_ref.pair.value).values

        for size in SKETCH_SIZES:
            left = CorrelationSketch.from_columns(left_keys, left_vals, size)
            right = CorrelationSketch.from_columns(right_keys, right_vals, size)
            if left.saw_all_keys and right.saw_all_keys:
                # Both tables fit inside the sketch: the "estimate" is the
                # exact full-join correlation. No estimation is happening,
                # so the pair carries no signal for the RMSE figure (the
                # paper's tables are always much larger than the sketch).
                continue
            sample = join_pair(left, right).samples[0]
            if sample.size < 3:
                continue
            for name in ESTIMATOR_NAMES:
                estimate = get_estimator(name)(sample.x, sample.y)
                truth = truths[name]
                if math.isnan(estimate) or math.isnan(truth):
                    continue
                records[(size, name)].append(
                    AccuracyRecord(
                        pair_id=f"combo{idx}",
                        estimate=estimate,
                        truth=truth,
                        sample_size=sample.size,
                        join_size=clean.size,
                    )
                )
    return records


@pytest.fixture(scope="module")
def figure4_records(nyc_refs):
    return _collect_records(nyc_refs)


def test_figure4_rmse_by_intersection_size(benchmark, nyc_refs):
    records = benchmark.pedantic(
        lambda: _collect_records(nyc_refs), rounds=1, iterations=1
    )
    sections = []
    for size in SKETCH_SIZES:
        series = {
            name: rmse_by_sample_size(records[(size, name)])
            for name in ESTIMATOR_NAMES
        }
        sections.append(
            format_rmse_table(series, title=f"max sketch size k = {size}")
        )
    write_result("figure4_rmse.txt", "\n\n".join(sections))

    # Shape assertion: small-intersection buckets must average worse RMSE
    # than large-intersection buckets, for every sketch size that has both
    # regimes populated.
    for size in SKETCH_SIZES:
        buckets = rmse_by_sample_size(records[(size, "pearson")])
        small = [b.rmse for b in buckets if b.high <= 21]
        large = [b.rmse for b in buckets if b.low >= 34]
        if not small or not large:
            continue
        assert (
            sum(large) / len(large) < sum(small) / len(small)
        ), f"RMSE did not decrease with intersection size at k={size}"


def test_figure4_every_estimator_converges(benchmark, figure4_records):
    """Every estimator's overall RMSE at large samples lands near ~0.1."""

    def check():
        out = {}
        for name in ESTIMATOR_NAMES:
            big_sample = [
                r for r in figure4_records[(1024, name)] if r.sample_size >= 89
            ]
            if big_sample:
                out[name] = overall_rmse(big_sample)
        return out

    rmses = benchmark.pedantic(check, rounds=1, iterations=1)
    assert rmses
    for name, rmse in rmses.items():
        assert rmse < 0.25, name


def test_figure4_qn_least_stable(benchmark, figure4_records):
    """Qn is the spiky line: its overall RMSE should not beat Pearson's."""

    def check():
        return (
            overall_rmse(figure4_records[(256, "qn")]),
            overall_rmse(figure4_records[(256, "pearson")]),
        )

    qn, pearson = benchmark.pedantic(check, rounds=1, iterations=1)
    assert qn >= pearson * 0.8  # allow noise, but Qn must not dominate
