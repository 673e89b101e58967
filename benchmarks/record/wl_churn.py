"""The ``ingest_churn`` workload: writes beside reads on one catalog.

Each round restarts from ``base.arena`` and replays the same churn
steps. A step parses a new CSV and indexes its column pairs
(``read_csv`` + ``add_table``), answers a read-your-write top-k query
with the new table's first pair (no ``exclude_id``: the self-hit proves
the write is visible), removes the oldest live table's sketches, and on
every ``compact_every``-th step folds delta and tombstones into the
frozen layer. The round ends with ``save()``. A faster frozen probe that
taxes the delta, or a build-time precompute that speeds queries, shows
here as a regression.

Set-up is the bulk build of the base from its CSV files (the ``index``
verb's path) plus freeze plus save.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from pathlib import Path

import numpy as np

from repro.core.sketch import CorrelationSketch
from repro.index.catalog import SketchCatalog
from repro.index.engine import CandidatePage, retrieve_candidates_batch
from repro.index.options import QueryOptions
from repro.kmv.bottomk import BottomK
from repro.ranking.ranker import rank_candidates
from repro.ranking.scoring import candidate_scores_batch
from repro.serving.session import QuerySession
from repro.table.csv_io import read_csv

import fixtures
from replaymin import (
    CheckFailed,
    Replay,
    SetupSteps,
    SpanRecorder,
    Yardstick,
    digest,
    median_ms,
    peak_rss_kb,
)

SCORER = "rp_cih"
SAVE = "save"


def prepare(seed: int, seconds: float, scale, work: Path, trace: bool):
    """Driver side: write the base and step CSV files."""
    steps = min(scale.churn_steps, scale.churn_trace_ops) if trace else scale.churn_steps
    tables = fixtures.shaped_tables(
        seed, scale.churn_base + steps, keep=fixtures.has_pairs_as_csv
    )
    paths = fixtures.write_csvs(tables, work / "csv")
    spec = {
        "workload": "ingest_churn",
        "base_csvs": paths[: scale.churn_base],
        "step_csvs": paths[scale.churn_base :],
        "step_rows": [len(t) for t in tables[scale.churn_base :]],
        "base_arena": str(work / "base.arena"),
        "round_arena": str(work / "round.arena"),
        "twin_arena": str(work / "twin.arena"),
        "compact_every": scale.churn_compact_every,
        "rounds": (
            scale.trace_rounds
            if trace
            else fixtures.rounds_for(scale.churn_rounds, seconds, scale)
        ),
        "setup_passes": 1 if trace else scale.setup_passes,
        "quality_steps": min(scale.quality_ops, steps),
        "trace": trace,
        "spans": str(fixtures.spans_path(scale, work, "ingest_churn")),
    }
    return spec, tables


class _Round:
    """The mutable state one replay round restarts from ``base.arena``."""

    def __init__(
        self, spec: dict, base_ids: list[list[str]], options, save_to: str
    ) -> None:
        self.spec = spec
        self.options = options
        self.save_to = save_to
        self.catalog = SketchCatalog.load(spec["base_arena"])
        self.session = QuerySession.for_catalog(self.catalog, options)
        self.live = deque(base_ids)
        self.removed: set[str] = set()

    def step(self, op, *, wide: bool = False):
        """One churn step (or the round-end save), as the program's
        user would write it."""
        catalog = self.catalog
        if op == SAVE:
            catalog.save(self.save_to)
            return None
        table = read_csv(self.spec["step_csvs"][op])
        ids = catalog.add_table(table)
        result = None
        if ids:
            result = self.session.submit_one(
                catalog.get(ids[0]),
                options=self.options.merged(k=fixtures.DEPTH) if wide else None,
            )
        self.live.append(ids)
        gone = catalog.remove_sketches(self.live.popleft())
        if (op + 1) % self.spec["compact_every"] == 0:
            catalog.compact()
        return ids, result, gone

    def check(self, out) -> str:
        """Read-your-write: the new pair is visible, no removed id is."""
        if out is None:
            return digest(list(self.catalog))
        ids, result, gone = out
        ranked = [] if result is None else result.ranked
        found = [c.candidate_id for c in ranked]
        stale = self.removed.intersection(found)
        self.removed.update(gone)
        if ids and ids[0] not in found:
            raise CheckFailed(f"new pair {ids[0]} not in its own answer")
        if stale:
            raise CheckFailed(f"removed ids {sorted(stale)} were returned")
        return digest(ids, [(c.candidate_id, c.score) for c in ranked], gone)


def _bulk_build(spec: dict, setup: SetupSteps) -> list[list[str]]:
    catalog = SketchCatalog(sketch_size=fixtures.SKETCH_SIZE)
    base_ids = []
    for j, path in enumerate(spec["base_csvs"]):
        with setup.step(f"csv-{j:03d}"):
            base_ids.append(catalog.add_table(read_csv(path)))
    with setup.step("freeze"):
        catalog.frozen_postings()
    with setup.step("save"):
        catalog.save(spec["base_arena"])
    return base_ids


def execute(spec: dict) -> dict:
    """Runner side: bulk-build passes, replayed churn rounds, quality."""
    options = QueryOptions(k=fixtures.K, depth=fixtures.DEPTH, scorer=SCORER)
    ops = list(range(len(spec["step_csvs"]))) + [SAVE]
    gc.collect()
    gc.freeze()

    yardstick = Yardstick()
    setup = SetupSteps()
    base_ids: list[list[str]] = []
    for _ in range(spec["setup_passes"]):
        base_ids = _bulk_build(spec, setup)
        yardstick.tick()

    replay = Replay(len(ops))
    recorder = SpanRecorder()
    seen: dict = {}
    first_round: list = []
    state = None
    for r in range(spec["rounds"]):
        state = _Round(spec, base_ids, options, spec["round_arena"])
        after = None
        if spec["trace"]:
            # The staged replay runs on a twin catalog, step for step
            # right after the end-to-end one, so both see the same host.
            after = _staged_twin(
                recorder, r, _Round(spec, base_ids, options, spec["twin_arena"]),
                replay, seen,
            )
        outputs = replay.run_round(ops, state.step, state.check, after=after)
        if r == 0:
            first_round = outputs
        yardstick.tick()
    snapshot_bytes = Path(spec["round_arena"]).stat().st_size
    sketches = len(state.catalog)

    # Quality: replay the first steps once more, untimed, asking for the
    # whole pool; the head of each must be the timed step's answer.
    quality = []
    state = _Round(spec, base_ids, options, spec["round_arena"])
    for i in range(spec["quality_steps"]):
        ids, pool, _ = state.step(i, wide=True)
        timed = first_round[i]
        if pool is None:
            continue
        head = [c.candidate_id for c in pool.ranked[: fixtures.K]]
        if timed is None or head != [c.candidate_id for c in timed[1].ranked]:
            replay.fail(i, f"op {i}: k={fixtures.DEPTH} ranking has another head")
        quality.append(
            {
                "query": ids[0],
                # k + 1: the self-hit is dropped before quality is scored
                "top": [
                    [c.candidate_id, c.stats.r_pearson]
                    for c in pool.ranked[: fixtures.K + 1]
                ],
                "pool": [c.candidate_id for c in pool.ranked],
            }
        )

    layers = None
    if spec["trace"]:
        recorder.write(spec["spans"])
        layers = _layers(spec, recorder, seen, replay, setup, state.catalog.hasher)
    return {
        "replay": replay.to_dict(),
        "setup": setup.steps,
        "yardstick": yardstick.samples,
        "quality": quality,
        "units": sum(spec["step_rows"]),
        "snapshot_bytes": snapshot_bytes,
        "sketches": sketches,
        "layers": layers or {},
        "rss_kb": peak_rss_kb(),
    }


# -- traced run -------------------------------------------------------------

#: Stage spans of one churn step, in order (children of the ``op`` root).
STAGES = (
    "read_csv", "pair_arrays", "sketch_build", "add", "columnar", "probe",
    "assemble", "score", "rank", "remove", "compact", "save",
)



def _staged_step(rec: SpanRecorder, state: _Round, op, seen: dict):
    """One churn step, stage by stage through the public seams
    ``add_table`` and ``submit_one`` string together. ``seen`` collects
    what the counters and the kernel probes need, per operation."""
    catalog, options = state.catalog, state.options
    with rec.span("op", "harness"):
        if op == SAVE:
            with rec.span("save", "index.snapshot"):
                catalog.save(state.save_to)
            return None
        with rec.span("read_csv", "table"):
            table = read_csv(state.spec["step_csvs"][op])
        sketches, key_columns = [], []
        for pair in table.column_pairs():
            with rec.span("pair_arrays", "table"):
                keys, values = table.pair_arrays(pair)
            with rec.span("sketch_build", "core"):
                sketch = CorrelationSketch(
                    catalog.sketch_size,
                    aggregate=catalog.aggregate,
                    hasher=catalog.hasher,
                    name=pair.pair_id,
                )
                sketch.update_array(keys, values)
            sketches.append((pair.pair_id, sketch))
            key_columns.append(keys)
        with rec.span("add", "index.catalog"):
            ids = catalog.add_sketches(sketches)
        seen[op] = {
            "rows": len(table),
            "key_columns": key_columns,
            "delta_size": catalog.delta_size,
        }
        ranked = []
        if sketches:
            query = sketches[0][1]
            with rec.span("columnar", "core"):
                columns = query.columnar()
            with rec.span("probe", "index.inverted"):
                hits = retrieve_candidates_batch(
                    catalog, [columns],
                    depth=options.depth, min_overlap=options.min_overlap,
                )[0]
            with rec.span("assemble", "core"):
                page = CandidatePage.assemble(catalog, columns, hits)
                containments = page.containments(query.distinct_keys())
            rng = np.random.default_rng(7)
            with rec.span("score", "ranking.scoring"):
                stats = candidate_scores_batch(
                    page.samples, containment_ests=containments,
                    rng=rng, with_bootstrap=False,
                )
            with rec.span("rank", "ranking.ranker"):
                ranked = rank_candidates(page.ids, stats, options.scorer, rng=rng)[
                    : options.k
                ]
        state.live.append(ids)
        with rec.span("remove", "index.catalog"):
            gone = catalog.remove_sketches(state.live.popleft())
        if (op + 1) % state.spec["compact_every"] == 0:
            # The same probe against the live delta + tombstones, then
            # against the compacted layer: what the delta taxes a probe.
            # (Not stages of the step: STAGES leaves them out.)
            probe = [columns] if sketches else []
            with rec.span("probe_live", "index.catalog"):
                retrieve_candidates_batch(catalog, probe, depth=options.depth)
            with rec.span("compact", "index.catalog"):
                catalog.compact()
            with rec.span("probe_compacted", "index.catalog"):
                retrieve_candidates_batch(catalog, probe, depth=options.depth)
    return digest(ids, [(c.candidate_id, c.score) for c in ranked], gone)


def _staged_twin(rec: SpanRecorder, round_index: int, twin: _Round, replay, seen):
    """The ``after`` hook of one traced round."""

    def after(i: int, op) -> None:
        rec.round, rec.op = round_index, i
        staged = _staged_step(rec, twin, op, seen)
        if staged is not None and staged != replay.digests[i]:
            replay.fail(i, f"op {i}: staged replay ranks differently")

    return after


def _layers(spec, rec: SpanRecorder, seen, replay: Replay, setup, hasher) -> dict:
    n = len(replay)
    stage = rec.clean_by_name(n)
    e2e = replay.clean()
    steps = slice(0, n - 1)  # every op but the round-end save
    compacting = [i for i in range(n - 1) if (i + 1) % spec["compact_every"] == 0]
    per_step = [seen[i] for i in range(n - 1)]
    rows = np.asarray([s["rows"] for s in per_step], dtype=float)
    pairs = np.asarray([max(1, len(s["key_columns"])) for s in per_step])
    key_columns = [keys for s in per_step for keys in s["key_columns"]]
    return {
        "trace.stage_coverage_ratio": float(
            sum(stage[name].sum() for name in STAGES) / e2e.sum()
        ),
        "trace.overhead_ratio": float(
            np.median(rec.clean_durations("op", n)) / np.median(e2e)
        ),
        "table.read_csv_us_per_row": float(
            np.median(stage["read_csv"][steps] / rows) * 1e6
        ),
        "table.pair_arrays_ms": median_ms(stage["pair_arrays"][steps] / pairs),
        "table.rows_parsed": float(rows.sum()),
        "table.files_without_pairs": float(
            sum(not s["key_columns"] for s in per_step)
        ),
        "hashing.keys_hashed": float(sum(len(keys) for keys in key_columns)),
        "core.sketch_build_ms": median_ms(stage["sketch_build"][steps] / pairs),
        "core.assemble_ms": median_ms(stage["assemble"][steps]),
        "index.inverted.probe_ms": median_ms(stage["probe"][steps]),
        "ranking.scoring.score_ms": median_ms(stage["score"][steps]),
        "ranking.ranker.rank_ms": median_ms(stage["rank"][steps]),
        "index.catalog.add_ms_per_sketch": median_ms(stage["add"][steps] / pairs),
        "index.catalog.remove_ms_per_sketch": median_ms(
            stage["remove"][steps] / pairs
        ),
        "index.catalog.compact_ms": median_ms(stage["compact"][compacting]),
        "index.catalog.freeze_ms": setup.step_ms("freeze"),
        "index.catalog.delta_size_at_probe": float(
            np.mean([s["delta_size"] for s in per_step])
        ),
        "index.catalog.delta_probe_tax_ratio": float(
            np.median(stage["probe_live"][compacting])
            / np.median(stage["probe_compacted"][compacting])
        ),
        "index.snapshot.save_ms": float(stage["save"][n - 1]) * 1e3,
        **_kernel_probes(
            [s["key_columns"][0] for s in per_step if s["key_columns"]],
            hasher,
            spec["rounds"],
        ),
    }


def _kernel_probes(key_columns, hasher, rounds: int) -> dict:
    """The two kernels under ``update_array``, timed on each step table's
    key column through their public entry points."""
    hash_s = np.full(len(key_columns), np.inf)
    merge_s = np.full(len(key_columns), np.inf)
    for _ in range(rounds):
        for i, keys in enumerate(key_columns):
            t0 = time.perf_counter()
            hashes = hasher.hash_batch(keys)
            hash_s[i] = min(hash_s[i], time.perf_counter() - t0)
            distinct = np.unique(hashes)
            ranks = hasher.unit_hash_batch(distinct)
            # update_array offers the bottom-n newcomers only
            keep = np.argsort(ranks)[: fixtures.SKETCH_SIZE]
            payloads = [None] * len(keep)
            t0 = time.perf_counter()
            BottomK(fixtures.SKETCH_SIZE).update_batch(
                ranks[keep], distinct[keep], payloads
            )
            merge_s[i] = min(merge_s[i], time.perf_counter() - t0)
    sizes = np.asarray([len(keys) for keys in key_columns], dtype=float)
    return {
        "hashing.hash_batch_ns_per_key": float(np.median(hash_s / sizes) * 1e9),
        "kmv.bottomk_update_ms": median_ms(merge_s),
    }
