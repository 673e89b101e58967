"""Sketch-construction microbenchmarks (the one-pass, bounded-memory claim).

Section 3.4: sketches are built with a single pass while maintaining the
``n`` minimum-hash tuples in a tree-like structure. These benchmarks
quantify both construction paths:

* **streaming** — the reference row-at-a-time ``update_all`` loop (one
  scalar MurmurHash3 + one bounded-structure offer per row); throughput
  should be nearly flat in sketch size;
* **vectorized** — the columnar ``update_array`` fast path (batch hashing,
  grouped NumPy reductions, argpartition bottom-``n``), which produces a
  bit-identical sketch; ``test_vectorized_speedup`` reports and asserts
  the streaming-vs-vectorized throughput ratio;
* the streaming-CSV path versus load-then-sketch at equal output.

Run ``--quick`` for a CI-sized smoke pass (smaller workload, ratio
reported but not asserted).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import write_result
from repro.core.sketch import CorrelationSketch
from repro.table.streaming import stream_sketch_csv


def _streamed(keys, values, n) -> CorrelationSketch:
    """The row-at-a-time reference build (``update_all``)."""
    sketch = CorrelationSketch(n)
    sketch.update_all(zip(keys, values))
    return sketch


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
def test_construction_throughput(benchmark, rows, sketch_size):
    keys, values = rows

    def build():
        return _streamed(keys, values, sketch_size)

    sketch = benchmark(build)
    assert len(sketch) == min(sketch_size, len(keys))
    rate = len(keys) / benchmark.stats["mean"]
    write_result(
        f"construction_n{sketch_size}.txt",
        f"sketch size {sketch_size}: {rate:,.0f} rows/s "
        f"(mean {benchmark.stats['mean'] * 1000:.1f} ms for {len(keys):,} rows)",
    )


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


def test_vectorized_speedup(rows, quick):
    """Head-to-head at the paper's query sketch size (n = 1024).

    Asserts the acceptance bar for the columnar path — at least 5x the
    streaming throughput — and that both paths produce the same sketch.
    """
    keys, values = rows
    n = 1024

    def best_of(build, reps=3):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            sketch = build()
            times.append(time.perf_counter() - t0)
        return sketch, min(times)

    streamed, t_stream = best_of(lambda: _streamed(keys, values, n))
    vectored, t_vec = best_of(
        lambda: CorrelationSketch.from_columns(keys, values, n)
    )

    assert streamed.entries() == vectored.entries()
    assert streamed.rows_seen == vectored.rows_seen

    ratio = t_stream / t_vec
    write_result(
        "construction_vectorized_speedup.txt",
        f"n={n}, {len(keys):,} rows: streaming {len(keys) / t_stream:,.0f} rows/s, "
        f"vectorized {len(keys) / t_vec:,.0f} rows/s -> {ratio:.1f}x speedup",
    )
    if not quick:
        assert ratio >= 5.0, f"vectorized path only {ratio:.1f}x faster"


def test_streaming_csv_construction(benchmark, tmp_path_factory, rows):
    keys, values = rows
    path = tmp_path_factory.mktemp("bench") / "big.csv"
    lines = ["k,v"] + [f"{k},{v:.5f}" for k, v in zip(keys, values)]
    path.write_text("\n".join(lines) + "\n")

    sketches = benchmark.pedantic(
        lambda: stream_sketch_csv(path, 1024), rounds=1, iterations=1
    )
    assert len(sketches) == 1
    (sketch,) = sketches.values()
    assert len(sketch) == 1024
    assert sketch.rows_seen == len(keys)
