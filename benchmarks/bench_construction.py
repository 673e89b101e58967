"""Sketch-construction microbenchmarks (the one-pass, bounded-memory claim).

Section 3.4: sketches are built with a single pass while maintaining the
``n`` minimum-hash tuples. There is one construction path — the columnar
``update_array`` (batch hashing, grouped NumPy reductions, argpartition
bottom-``n``), bit-identical to the row-at-a-time definition that
``tests/row_sketch_oracle.py`` keeps — and these benchmarks time it:

* in memory, ``CorrelationSketch.from_columns`` across sketch sizes;
* from a CSV file, the block-streaming ``stream_sketch_csv`` against
  load-then-sketch (``read_csv`` + ``SketchCatalog.add_table``), at equal
  output.

Run ``--quick`` for a CI-sized smoke pass (smaller workload).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import write_result
from repro.core.sketch import CorrelationSketch
from repro.index.catalog import SketchCatalog
from repro.table.csv_io import read_csv
from repro.table.streaming import stream_sketch_csv


N_ROWS = 200_000
N_ROWS_QUICK = 20_000


@pytest.fixture(scope="module")
def rows(quick):
    n = N_ROWS_QUICK if quick else N_ROWS
    rng = np.random.default_rng(0)
    keys = [f"key-{i}" for i in range(n)]
    values = rng.standard_normal(n)
    return keys, values


@pytest.mark.parametrize("sketch_size", [64, 1024, 16_384])
def test_construction_throughput_vectorized(benchmark, rows, sketch_size):
    keys, values = rows

    def build():
        return CorrelationSketch.from_columns(keys, values, sketch_size)

    sketch = benchmark(build)
    assert len(sketch) == min(sketch_size, len(keys))
    rate = len(keys) / benchmark.stats["mean"]
    write_result(
        f"construction_vectorized_n{sketch_size}.txt",
        f"sketch size {sketch_size} (vectorized): {rate:,.0f} rows/s "
        f"(mean {benchmark.stats['mean'] * 1000:.1f} ms for {len(keys):,} rows)",
    )


def test_streaming_csv_construction(tmp_path_factory, rows):
    """Block streaming from the file equals load-then-sketch; both timed
    (best of 3) and the ratio reported."""
    keys, values = rows
    path = tmp_path_factory.mktemp("bench") / "big.csv"
    lines = ["k,v"] + [f"{k},{v:.5f}" for k, v in zip(keys, values)]
    path.write_text("\n".join(lines) + "\n")

    def best_of(build, reps=3):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            built = build()
            times.append(time.perf_counter() - t0)
        return built, min(times)

    def load_then_sketch():
        catalog = SketchCatalog(sketch_size=1024)
        catalog.add_table(read_csv(path))
        return catalog

    sketches, t_stream = best_of(lambda: stream_sketch_csv(path, 1024))
    catalog, t_eager = best_of(load_then_sketch)
    assert list(sketches) == list(catalog)
    (sketch,) = sketches.values()
    assert len(sketch) == 1024
    assert sketch.rows_seen == len(keys)
    assert sketch.entries() == catalog.get("big.csv::k->v").entries()
    write_result(
        "construction_streaming_csv.txt",
        f"n=1024, {len(keys):,} rows from CSV: streaming "
        f"{len(keys) / t_stream:,.0f} rows/s, load-then-sketch "
        f"{len(keys) / t_eager:,.0f} rows/s ({t_stream / t_eager:.2f}x the time)",
    )
