"""Incremental ingest: the delta layer vs rebuild-per-batch.

The LSM maintenance contract (docs/ARCHITECTURE.md "Incremental
maintenance") only earns its complexity if appending to a served catalog
is *cheap*: an append lands in the mutable delta index in O(sketch)
time, while the pre-delta maintenance story — re-freezing the monolithic
CSR after every ingest batch — pays O(corpus) per batch, i.e. O(n²)
over a sustained ingest stream.

``test_incremental_ingest_throughput`` replays the same ingest stream
(batches of sketches appended to a pre-loaded catalog, one probe after
every batch to keep the index serving-warm, exactly what a freshness-
sensitive deployment does) under two maintenance strategies:

* **delta** — appends land in the delta layer; a ``compact()`` every
  ``FOLD_EVERY`` batches folds them in; probes are layered (frozen +
  delta);
* **rebuild** — appends go straight to the live index and every batch
  re-freezes the full monolithic CSR before serving (the only way to
  keep frozen-path probes fresh without a delta layer).

Acceptance: amortized per-append cost under the delta strategy is
sublinear in corpus size — the last ingest batch may not cost more than
``SUBLINEAR_FACTOR`` × the first (rebuild-per-batch grows linearly, and
the bench asserts the strategies' end-state answers match bit for bit).
Results land in ``benchmarks/results/incremental_ingest.txt``;
``--quick`` shrinks the stream to a CI smoke with no timing assertions.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import write_result
from repro.core.sketch import CorrelationSketch
from repro.index.catalog import SketchCatalog
from repro.index.engine import JoinCorrelationEngine

SKETCH_SIZE = 128
ROWS_PER_SKETCH = 400
KEY_UNIVERSE = 8_000

BASE_SKETCHES, N_BATCHES, BATCH_SIZE = 512, 16, 64
QUICK_BASE, QUICK_BATCHES, QUICK_SIZE = 64, 4, 16

#: Delta appends are O(sketch); allow generous noise headroom while
#: still refusing anything resembling O(corpus) growth (rebuild-per-
#: batch shows ~linear growth, a factor ≈ final/initial corpus ratio).
SUBLINEAR_FACTOR = 3.0

#: Fold the delta every FOLD_EVERY ingest batches: appends stay O(sketch)
#: and the occasional fold amortizes across the batches since the last
#: one (folding every batch would just be rebuild-per-batch in disguise).
FOLD_EVERY = 4


def _sketch_stream(n, rng, hasher, prefix):
    batch = []
    for i in range(n):
        keys = rng.choice(KEY_UNIVERSE, ROWS_PER_SKETCH, replace=False)
        sid = f"{prefix}{i:05d}"
        batch.append(
            (
                sid,
                CorrelationSketch.from_columns(
                    keys,
                    rng.standard_normal(ROWS_PER_SKETCH),
                    SKETCH_SIZE,
                    hasher=hasher,
                    name=sid,
                ),
            )
        )
    return batch


def _replay(catalog, batches, query, *, fold_every):
    """Ingest every batch, compacting after every ``fold_every``-th and
    probing once per batch; returns per-batch ms. ``fold_every=1`` is
    the pre-delta maintenance story: fold everything into a fresh
    monolithic CSR so the frozen probe path stays fresh."""
    engine = JoinCorrelationEngine(catalog, retrieval_depth=50)
    timings = []
    for i, batch in enumerate(batches):
        t0 = time.perf_counter()
        catalog.add_sketches(batch)
        if (i + 1) % fold_every == 0:
            catalog.compact()
        engine.query(query, k=10, scorer="rp")
        timings.append((time.perf_counter() - t0) * 1000)
    return timings


def test_incremental_ingest_throughput(quick):
    n_base = QUICK_BASE if quick else BASE_SKETCHES
    n_batches = QUICK_BATCHES if quick else N_BATCHES
    batch_size = QUICK_SIZE if quick else BATCH_SIZE

    rng = np.random.default_rng(17)
    base = SketchCatalog(sketch_size=SKETCH_SIZE)
    base_batch = _sketch_stream(n_base, rng, base.hasher, "base")
    stream = [
        _sketch_stream(batch_size, rng, base.hasher, f"b{b:02d}x")
        for b in range(n_batches)
    ]
    query_keys = rng.choice(KEY_UNIVERSE, 2 * ROWS_PER_SKETCH, replace=False)
    query = CorrelationSketch.from_columns(
        query_keys,
        rng.standard_normal(query_keys.shape[0]),
        SKETCH_SIZE,
        hasher=base.hasher,
        name="query",
    )

    def fresh():
        catalog = SketchCatalog(sketch_size=SKETCH_SIZE, hasher=base.hasher)
        catalog.add_sketches(base_batch)
        catalog.frozen_postings()  # the pre-loaded, already-compacted state
        return catalog

    delta_catalog = fresh()
    delta_ms = _replay(delta_catalog, stream, query, fold_every=FOLD_EVERY)
    rebuild_catalog = fresh()
    rebuild_ms = _replay(rebuild_catalog, stream, query, fold_every=1)

    # Same stream, same answers: the maintenance strategy is invisible.
    a = JoinCorrelationEngine(delta_catalog).query(query, k=10, scorer="rp")
    b = JoinCorrelationEngine(rebuild_catalog).query(query, k=10, scorer="rp")
    assert [(e.candidate_id, e.score) for e in a.ranked] == [
        (e.candidate_id, e.score) for e in b.ranked
    ]

    per_append_delta = sum(delta_ms) / (n_batches * batch_size)
    per_append_rebuild = sum(rebuild_ms) / (n_batches * batch_size)
    # Window means aligned to the fold cadence (each window spans one
    # full fold cycle), so the sublinearity check compares like with
    # like instead of a fold batch against a delta-only batch.
    head = sum(delta_ms[:FOLD_EVERY]) / FOLD_EVERY
    tail = sum(delta_ms[-FOLD_EVERY:]) / FOLD_EVERY
    lines = [
        "incremental ingest: delta layer vs rebuild-per-batch",
        f"  base corpus {n_base} sketches, {n_batches} batches x "
        f"{batch_size} appends, one probe per batch",
        f"  {'batch':>5} {'corpus':>7} {'delta ms':>9} {'rebuild ms':>11}",
    ]
    corpus = n_base
    for i, (d, r) in enumerate(zip(delta_ms, rebuild_ms)):
        corpus += batch_size
        lines.append(f"  {i:>5} {corpus:>7} {d:>9.2f} {r:>11.2f}")
    lines += [
        f"  amortized per append: delta {per_append_delta:.3f} ms, "
        f"rebuild {per_append_rebuild:.3f} ms "
        f"({per_append_rebuild / max(per_append_delta, 1e-9):.1f}x)",
        f"  fold-cycle cost growth (last/first window): delta "
        f"{tail / max(head, 1e-9):.2f}x, rebuild "
        f"{(sum(rebuild_ms[-FOLD_EVERY:]) / max(sum(rebuild_ms[:FOLD_EVERY]), 1e-9)):.2f}x",
    ]
    write_result("incremental_ingest.txt", "\n".join(lines))

    if not quick:
        # Sublinear amortized appends: a fold cycle at ~3x the corpus
        # size may not cost more than SUBLINEAR_FACTOR x the first one.
        assert tail <= SUBLINEAR_FACTOR * max(head, 0.1)
        # And the delta strategy beats rebuild-per-batch outright.
        assert per_append_delta < per_append_rebuild
