"""The two in-process query workloads: ``point_query`` and ``batch_bootstrap``.

Both serve the same monolithic ``.arena`` snapshot through
``QuerySession``; they differ in how the index is used. ``point_query``
submits one pre-sketched query at a time under the closed-form ``rp_cih``
scorer (retrieve, join page, score, rank — no bootstrap);
``batch_bootstrap`` submits small batches on a session opened with
``rb_cib``, which takes the ``execute_batch`` path (stacked probe, one
shared scoring pass) and spends most of its time in the PM1 bootstrap.
A bootstrap gain shows in the second and must not move the first; a
join-page gain shows in both.

``execute`` runs in the runner process (which holds no fixture tables),
``prepare`` and the quality scoring in the driver.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

import numpy as np

from repro.index.catalog import SketchCatalog
from repro.index.engine import (
    CandidatePage,
    retrieve_candidates,
    retrieve_candidates_batch,
)
from repro.index.options import QueryOptions
from repro.index.snapshot import verify_snapshot
from repro.ranking.ranker import rank_candidates
from repro.ranking.scoring import candidate_scores_batch
from repro.serving.coalescer import QueryCoalescer
from repro.serving.session import QuerySession

import fixtures
from replaymin import (
    Replay,
    SetupSteps,
    SideProbes,
    SpanRecorder,
    Yardstick,
    digest,
    median_ms,
    peak_rss_kb,
)

SCORERS = {"point_query": "rp_cih", "batch_bootstrap": "rb_cib"}


def prepare(workload: str, seed: int, seconds: float, scale, work: Path, trace: bool):
    """Driver side: generate the fixture files; returns (spec, tables)."""
    tables = fixtures.shaped_tables(seed, scale.corpus_tables + scale.query_tables)
    corpus, held_out = tables[: scale.corpus_tables], tables[scale.corpus_tables:]
    catalog = fixtures.build_catalog(corpus)
    arena = work / "corpus.arena"
    catalog.save(arena)
    if workload == "point_query":
        n_ops, batch, cold = scale.point_ops, 1, scale.point_cold
        rounds = fixtures.rounds_for(scale.point_rounds, seconds, scale)
        trace_ops = scale.point_trace_ops
    else:
        n_ops, batch, cold = scale.batch_ops, scale.batch_size, scale.batch_cold
        rounds = fixtures.rounds_for(scale.batch_rounds, seconds, scale)
        trace_ops = scale.batch_trace_ops
    if trace:
        n_ops, rounds = min(n_ops, trace_ops), scale.trace_rounds
    refs = fixtures.query_refs(held_out, n_ops * batch)
    query_ids = fixtures.write_query_catalog(refs, work / "queries.arena")
    spec = {
        "workload": workload,
        "arena": str(arena),
        "queries": str(work / "queries.arena"),
        "query_ids": query_ids,
        "batch": batch,
        "scorer": SCORERS[workload],
        "rounds": rounds,
        "setup_passes": 1 if trace else scale.setup_passes,
        "cold": cold,
        "quality_queries": min(scale.quality_ops, len(query_ids)),
        "trace": trace,
        "spans": str(fixtures.spans_path(scale, work, workload)),
        "snapshot_bytes": arena.stat().st_size,
        "sketches": len(catalog),
    }
    return spec, tables


def _ranking(ranked_lists) -> str:
    return digest([[(c.candidate_id, c.score) for c in one] for one in ranked_lists])


def _estimate(candidate, scorer: str) -> float:
    stats = candidate.stats
    return stats.r_bootstrap if scorer == "rb_cib" else stats.r_pearson


def execute(spec: dict) -> dict:
    """Runner side: set-up passes, replayed rounds, quality rankings."""
    queries_catalog = SketchCatalog.load(spec["queries"])
    sketches = [queries_catalog.get(sid) for sid in spec["query_ids"]]
    batch = spec["batch"]
    ops = [sketches[i : i + batch] for i in range(0, len(sketches), batch)]
    options = QueryOptions(k=fixtures.K, depth=fixtures.DEPTH, scorer=spec["scorer"])
    gc.collect()
    gc.freeze()

    yardstick = Yardstick()
    setup = SetupSteps()
    session = None
    for _ in range(spec["setup_passes"]):
        if session is not None:
            session.close()
        with setup.step("open"):
            session = QuerySession.open(spec["arena"], options)
        with setup.step("warm"):
            session.warm()
        for i in range(spec["cold"]):
            with setup.step(f"cold-{i:03d}"):
                session.submit(ops[i])
        yardstick.tick()

    replay = Replay(len(ops))
    traced = _Traced(spec, session, ops, replay) if spec["trace"] else None
    first_round: list = []
    for r in range(spec["rounds"]):
        if traced is not None:
            traced.recorder.round = r
        outputs = replay.run_round(
            ops,
            session.submit,
            lambda results: _ranking(result.ranked for result in results),
            after=None if traced is None else traced.probes.sample,
        )
        if r == 0:
            first_round = outputs
        yardstick.tick()

    # Quality: the same path once more at k = depth, which returns the
    # whole retrieved pool in rank order; its head must be the timed answer.
    wide = options.merged(k=fixtures.DEPTH)
    quality = []
    for i in range(spec["quality_queries"] // batch):
        pools = session.submit(ops[i], options=wide)
        for q, pool in enumerate(pools):
            head = [c.candidate_id for c in pool.ranked[: fixtures.K]]
            timed = first_round[i]
            if timed is None or head != [c.candidate_id for c in timed[q].ranked]:
                replay.fail(i, f"op {i}: k={fixtures.DEPTH} ranking has another head")
            quality.append(
                {
                    "query": spec["query_ids"][i * batch + q],
                    "top": [
                        [c.candidate_id, _estimate(c, spec["scorer"])]
                        for c in pool.ranked[: fixtures.K]
                    ],
                    "pool": [c.candidate_id for c in pool.ranked],
                }
            )

    layers = traced.layers() if traced is not None else {}
    session.close()
    return {
        "replay": replay.to_dict(),
        "setup": setup.steps,
        "yardstick": yardstick.samples,
        "quality": quality,
        "units": len(sketches),
        "layers": layers,
        "rss_kb": peak_rss_kb(),
    }


# -- traced run -------------------------------------------------------------

#: Stage spans of one operation, in order (children of the ``op`` root).
STAGES = ("columnar", "probe", "assemble", "score", "rank")


class _Traced:
    """The staged replay and this workload's side probes, sampled right
    after each end-to-end operation of the same rounds."""

    def __init__(self, spec, session: QuerySession, ops, replay: Replay) -> None:
        self.spec = spec
        self.session = session
        self.ops = ops
        self.replay = replay
        self.recorder = SpanRecorder()
        #: per operation, one (page, containments, stats) per query
        self.pages: dict[int, list] = {}
        engine, options = session.backend, session.options
        calls = {"staged": self._staged}
        if spec["workload"] == "batch_bootstrap":
            calls["engine"] = lambda i, op: engine.query_batch(
                op, k=options.k, scorer=options.scorer
            )
            calls["score_plain"] = lambda i, op: self._score(i, False)
            calls["score_bootstrap"] = lambda i, op: self._score(i, True)
        else:
            self.coalescer = QueryCoalescer(session)
            # The snapshot carries no LSH signatures: a fresh load builds
            # the index from scratch.
            self.lsh_catalog = SketchCatalog.load(spec["arena"])
            self.lsh_catalog.lsh_index()
            calls["engine"] = lambda i, op: engine.query(
                op[0], k=options.k, scorer=options.scorer
            )
            calls["obs_traced"] = lambda i, op: session.submit(op, trace=True)
            calls["coalescer"] = lambda i, op: self.coalescer.submit(op[0])
            calls["lsh_probe"] = lambda i, op: retrieve_candidates(
                self.lsh_catalog, op[0].columnar(),
                depth=options.depth, backend="lsh",
            )
        self.probes = SideProbes(len(ops), calls)

    def _staged(self, i: int, op) -> None:
        """One operation, stage by stage through the public seams the
        engine's batch executor strings together; it must rank exactly
        as the end-to-end call did."""
        rec, options = self.recorder, self.session.options
        catalog = self.session.backend.catalog
        rec.op = i
        ranked, pages = [], []
        with rec.span("op", "harness"):
            with rec.span("columnar", "core"):
                columns = [sketch.columnar() for sketch in op]
            with rec.span("probe", "index.inverted"):
                hits = retrieve_candidates_batch(
                    catalog, columns,
                    depth=options.depth, min_overlap=options.min_overlap,
                )
            for sketch, cols, page_hits in zip(op, columns, hits):
                with rec.span("assemble", "core"):
                    page = CandidatePage.assemble(catalog, cols, page_hits)
                    containments = page.containments(sketch.distinct_keys())
                rng = np.random.default_rng(7)
                with rec.span("score", "ranking.scoring"):
                    stats = candidate_scores_batch(
                        page.samples,
                        containment_ests=containments,
                        rng=rng,
                        with_bootstrap=options.scorer == "rb_cib",
                        rng_mode=options.rng_mode,
                    )
                with rec.span("rank", "ranking.ranker"):
                    ranked.append(
                        rank_candidates(page.ids, stats, options.scorer, rng=rng)[
                            : options.k
                        ]
                    )
                pages.append((page, containments, stats))
        if _ranking(ranked) != self.replay.digests[i]:
            self.replay.fail(i, f"op {i}: staged replay ranks differently")
        self.pages[i] = pages

    def _score(self, i: int, with_bootstrap: bool) -> None:
        """The bootstrap's share of the score stage: the operation's own
        pages scored with and without it (``candidate_scores_batch``)."""
        for page, containments, _ in self.pages[i]:
            candidate_scores_batch(
                page.samples,
                containment_ests=containments,
                rng=np.random.default_rng(7),
                with_bootstrap=with_bootstrap,
                rng_mode=self.session.options.rng_mode,
            )

    def layers(self) -> dict:
        spec, options = self.spec, self.session.options
        self.recorder.write(spec["spans"])
        n, per_op = len(self.ops), spec["batch"]
        stage = self.recorder.clean_by_name(n)
        e2e = self.replay.clean()
        clean = self.probes.clean
        pages = [item for i in range(n) for item in self.pages[i]]
        scored = [
            (sample, s)
            for page, _, stats in pages
            for sample, s in zip(page.samples, stats)
        ]
        layers = {
            "trace.stage_coverage_ratio": float(
                sum(stage[name].sum() for name in STAGES) / e2e.sum()
            ),
            "trace.overhead_ratio": float(
                np.median(self.recorder.clean_durations("op", n)) / np.median(e2e)
            ),
            "core.assemble_ms": median_ms(stage["assemble"]) / per_op,
            "ranking.ranker.rank_ms": median_ms(stage["rank"]) / per_op,
            "core.join_sample_size_mean": float(
                np.mean([sample.size for sample, _ in scored])
            ),
            "index.inverted.candidates_per_result": float(
                np.mean([len(page.ids) for page, _, _ in pages]) / options.k
            ),
            "ranking.hfd_ci_length_median": float(
                np.median([s.hfd_ci_length for _, s in scored])
            ),
            "serving.session.submit_overhead_ms": median_ms(e2e - clean["engine"]),
        }
        if spec["workload"] == "batch_bootstrap":
            layers.update(
                {
                    "index.inverted.probe_batch_ms_per_query": (
                        median_ms(stage["probe"]) / per_op
                    ),
                    "index.engine.query_batch_ms_per_query": (
                        median_ms(clean["engine"]) / per_op
                    ),
                    "ranking.scoring.score_ms": median_ms(clean["score_plain"]) / per_op,
                    "correlation.bootstrap.ms_per_query": (
                        median_ms(clean["score_bootstrap"] - clean["score_plain"])
                        / per_op
                    ),
                    "correlation.bootstrap.candidates_resampled": float(
                        sum(
                            sample.size >= 2 and not np.isnan(s.r_pearson)
                            for sample, s in scored
                        )
                    ),
                }
            )
            return layers
        self.coalescer.close()
        layers.update(
            {
                "index.inverted.probe_ms": median_ms(stage["probe"]),
                "ranking.scoring.score_ms": median_ms(stage["score"]),
                "index.engine.query_ms": median_ms(clean["engine"]),
                "obs.trace.overhead_ratio": float(
                    np.median(clean["obs_traced"]) / np.median(e2e)
                ),
                "serving.coalescer.fast_path_overhead_ms": median_ms(
                    clean["coalescer"] - e2e
                ),
                "index.lsh.probe_ms": median_ms(clean["lsh_probe"]),
                "index.snapshot.bytes_per_sketch": (
                    spec["snapshot_bytes"] / spec["sketches"]
                ),
            }
        )
        layers.update(self._once())
        return layers

    def _once(self) -> dict:
        """``point_query``'s probes that are not per operation: what the
        program's own span block covers, snapshot load and verify, the
        LSH build and its recall against the exact backend."""
        spec, options, rounds = self.spec, self.session.options, self.spec["rounds"]
        covered = []
        for op in self.ops:
            t0 = time.perf_counter()
            result = self.session.submit(op, trace=True)[0]
            wall_ms = (time.perf_counter() - t0) * 1e3
            spans = [s for s in result.trace["spans"] if "parent" not in s]
            covered.append(sum(s["duration_ms"] for s in spans) / wall_ms)

        def fastest_ms(call) -> float:
            times = []
            for _ in range(rounds):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            return min(times) * 1e3

        recalls = []
        with QuerySession.for_catalog(
            self.lsh_catalog, options
        ) as exact, QuerySession.for_catalog(
            self.lsh_catalog, options.merged(retrieval_backend="lsh")
        ) as approx:
            for op in self.ops:
                want = {c.candidate_id for c in exact.submit(op)[0].ranked}
                got = {c.candidate_id for c in approx.submit(op)[0].ranked}
                if want:
                    recalls.append(len(want & got) / len(want))
        return {
            "obs.trace.coverage_ratio": float(np.median(covered)),
            "index.snapshot.load_ms": fastest_ms(
                lambda: SketchCatalog.load(spec["arena"])
            ),
            "index.snapshot.verify_ms": fastest_ms(
                lambda: verify_snapshot(spec["arena"])
            ),
            "index.lsh.build_ms": fastest_ms(
                lambda: SketchCatalog.load(spec["arena"]).lsh_index()
            ),
            "index.lsh.recall_at_10": float(np.mean(recalls)),
            "index.lsh.zero_recall_queries": float(sum(r == 0.0 for r in recalls)),
        }
