"""Table 2 — running times: full-data joins vs sketches (milliseconds).

For a stream of table pairs with heavily skewed sizes (mirroring open
data), measures wall time of

* full data: hash equi-join with aggregation, then Pearson (r_p) and
  Spearman (r_s) on the joined columns;
* sketches: joining two *pre-built* sketches (the index scenario — sketch
  construction is offline) and the same estimators on the reconstructed
  sample.

Reported rows match the paper: mean, std. dev., and the 75/90/99/99.9th
percentiles. Expected shape: sketch columns orders of magnitude smaller
and nearly constant; full-data columns heavy-tailed.
"""

from __future__ import annotations

import numpy as np

from conftest import write_result
from repro.core.joined_sample import join_pair
from repro.core.sketch import CorrelationSketch
from repro.correlation.pearson import pearson
from repro.correlation.spearman import spearman
from repro.data.sbn import generate_sbn_pair
from repro.evalharness.timing import TimingSample, TimingTable, timed
from repro.table.join import join_columns

SKETCH_SIZE = 1024
N_PAIRS = 60


def _measure() -> TimingTable:
    rng = np.random.default_rng(0)
    table = TimingTable()
    # Log-uniform row counts: mostly small tables, occasional huge ones —
    # the skew that produces the paper's heavy full-data tail.
    sizes = np.exp(rng.uniform(np.log(500), np.log(120_000), size=N_PAIRS)).astype(int)
    for i, rows in enumerate(sizes):
        pair = generate_sbn_pair(
            rng,
            rows=int(rows),
            correlation=float(rng.uniform(-1, 1)),
            join_fraction=float(rng.uniform(0.2, 1.0)),
            pair_id=i,
        )
        left_keys = pair.table_x.categorical("k").values
        left_vals = pair.table_x.numeric("x").values
        right_keys = pair.table_y.categorical("k").values
        right_vals = pair.table_y.numeric("y").values

        # Full-data path.
        holder = {}
        t_join = timed(
            lambda: holder.setdefault(
                "join", join_columns(left_keys, left_vals, right_keys, right_vals)
            )
        )
        join = holder["join"].drop_nan()
        t_rp = timed(lambda: pearson(join.x, join.y))
        t_rs = timed(lambda: spearman(join.x, join.y))

        # Sketch path: sketches are pre-built (offline indexing).
        left_sketch = CorrelationSketch.from_columns(left_keys, left_vals, SKETCH_SIZE)
        right_sketch = CorrelationSketch.from_columns(right_keys, right_vals, SKETCH_SIZE)
        sk_holder = {}
        t_sjoin = timed(
            lambda: sk_holder.setdefault(
                "s", join_pair(left_sketch, right_sketch).samples[0]
            )
        )
        sample = sk_holder["s"]
        t_srp = timed(lambda: pearson(sample.x, sample.y))
        t_srs = timed(lambda: spearman(sample.x, sample.y))

        table.add(
            TimingSample(
                full_join=t_join,
                full_pearson=t_rp,
                full_spearman=t_rs,
                sketch_join=t_sjoin,
                sketch_pearson=t_srp,
                sketch_spearman=t_srs,
            )
        )
    return table


def test_table2_running_times(benchmark):
    table = benchmark.pedantic(_measure, rounds=1, iterations=1)
    write_result("table2_running_times.txt", table.format())
    summary = table.summarize()

    # Shape: sketch join at least 10x faster on average, and the gap
    # widens in the tail (the paper reports orders of magnitude).
    assert summary["mean"]["sketch_join"] * 10 < summary["mean"]["full_join"]
    assert summary["99%"]["sketch_join"] * 20 < summary["99%"]["full_join"]

    # Predictability: the sketch join's spread is far smaller than the
    # full join's (fixed-size input -> near-constant cost).
    assert summary["std. dev."]["sketch_join"] < summary["std. dev."]["full_join"]

    # Estimators on fixed-size samples are likewise faster than on the
    # arbitrarily large joined columns, in the tail where it matters.
    assert summary["99%"]["sketch_spearman"] < summary["99%"]["full_spearman"]
