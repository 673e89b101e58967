"""Top-k join-correlation query evaluation (Definition 3 + Section 5.5).

The engine follows the paper's two-phase plan:

1. **Candidate retrieval** — query the inverted index for the
   ``retrieval_depth`` (paper: 100) corpus sketches with the largest
   key-hash overlap. Overlap is necessary for a usable join sample, so
   this prunes the vast majority of column pairs without any correlation
   work.
2. **Re-ranking** — join the query sketch with each candidate sketch,
   compute the per-candidate scoring statistics, apply the chosen scoring
   function (Section 4.4), and return the top-``k``.

The ``scorer`` argument of :meth:`JoinCorrelationEngine.query` (and the
CLI's ``repro-sketch query --scorer``) selects the Section 4.4 scoring
function by name: ``rp`` (s1, raw Pearson), ``rp_sez`` (s2, Fisher-z
penalized), ``rb_cib`` (s3, bootstrap-CI penalized — hundreds of
resamples per candidate), ``rp_cih`` (s4, Hoeffding-CI penalized — the
default and the paper's recommended latency/quality trade-off), plus the
``jc`` / ``jc_est`` containment and ``random`` baselines of Section 5.4.
See :data:`repro.ranking.scoring.SCORER_NAMES` — the name table in that
module's docs is the authoritative registry — and
:mod:`repro.ranking.ranker` for how scores become a ranked list.

Query sketches for in-memory tables are built like every other sketch,
by :meth:`repro.core.sketch.CorrelationSketch.update_array`.

One pipeline evaluates the plan, and a single query is a batch of one
(:meth:`JoinCorrelationEngine.query_batch`): the query sketches are
lowered to columns, the retrieval probe answers from the catalog's
layered indexes — frozen CSR + delta − tombstones
(:meth:`SketchCatalog.probe_top_overlap_batch`, one stacked pass for the
whole batch), the candidate page stays columnar from the membership
probe to the top-``k`` cut (:class:`CandidatePage`: one CSR block of
join samples plus four union-statistics arrays, scored by
:func:`repro.ranking.scoring.candidate_scores_batch`), and per-candidate
result records exist only for the ``k`` entries returned
(:func:`rerank_pages`). The pipeline asks two *stage steps* for the
parts that depend on where the sketches live — candidate retrieval and
page assembly. The engine answers both from its one catalog; a
:class:`repro.serving.ShardRouter` is the same engine whose retrieval
step checks the catalog's shards first. The row-at-a-time reference (dict-of-
lists ScanCount, per-candidate dict joins and statistics) that the
parity suites compare this pipeline against lives in the test tree,
``tests/scalar_query_oracle.py``.

``rng_mode`` selects how ``rb_cib`` queries run the PM1 bootstrap across
the candidate page: ``"batched"`` (default) drives all candidates
through the cross-candidate resampling engine
(:func:`repro.correlation.bootstrap.pm1_interval_page`); ``"compat"``
reproduces the historical per-candidate rng stream bit-for-bit.

``retrieval_backend`` plugs the candidate-retrieval phase
(:data:`RETRIEVAL_BACKENDS`): the exact inverted index (default) or the
approximate MinHash-LSH index — candidates are ranked by exact key
overlap either way, so the backends share re-ranking and differ only in
retrieval recall.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.joined_sample import (
    JoinedSamplePage,
    PageJoin,
    join_page,
    key_overlaps,
)
from repro.core.sketch import CorrelationSketch, SketchColumns
from repro.index.catalog import SketchCatalog, check_scheme
from repro.index.options import RETRIEVAL_BACKENDS, QueryOptions
from repro.ranking.ranker import RankedCandidate, rank_candidates
from repro.ranking.scoring import apply_bootstrap, candidate_scores_batch

__all__ = [
    "RETRIEVAL_BACKENDS",  # re-exported from repro.index.options
    "CandidatePage",
    "JoinCorrelationEngine",
    "QueryResult",
    "rerank_pages",
    "retrieve_candidates",
    "retrieve_candidates_batch",
]


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one top-k join-correlation query.

    Attributes:
        ranked: the final ranked candidate list (top-k).
        candidates_considered: sketches retrieved by the overlap phase.
        retrieval_seconds: wall time of the index-probe phase.
        rerank_seconds: wall time of the join/score/sort phase.
        shards_probed: how many catalog partitions served the retrieval
            phase — 1 for a monolithic catalog, the shard count when a
            :class:`repro.serving.ShardRouter` merged the result.
        shards_failed: partitions that timed out or raised and were
            dropped from the merge under the router's
            ``on_shard_error="partial"`` policy. Always 0 on the
            monolithic engine and on any fault-free routed query.
        degraded: True when the answer is known-incomplete — at least
            one shard's candidates are missing (``shards_failed > 0``).
            Callers that must not act on partial answers check this one
            flag.
        trace: optional per-query phase trace
            (:meth:`repro.obs.trace.Trace.to_dict` — ``trace_id`` plus
            named spans), recorded only when the caller requested
            tracing. Unlike ``retrieval_seconds``/``rerank_seconds`` —
            which on batched paths are *per-query shares* of the batch
            phases — the trace carries each query's genuinely per-query
            timings (assemble/merge spans) alongside the shared batch
            phases (marked ``meta.shared``).
    """

    ranked: list[RankedCandidate]
    candidates_considered: int
    retrieval_seconds: float
    rerank_seconds: float
    shards_probed: int = 1
    shards_failed: int = 0
    degraded: bool = False
    trace: dict | None = None

    @property
    def total_seconds(self) -> float:
        return self.retrieval_seconds + self.rerank_seconds

    def to_dict(self) -> dict:
        """Strict-JSON representation of the full result.

        The serialization seam the HTTP query service responds with —
        the server never hand-serializes result fields, so anything a
        query can report (score breakdowns, shard accounting, the
        ``degraded`` flag) reaches clients through this one method.
        Floats round-trip bit-for-bit through ``json.dumps``/``loads``
        (JSON carries ``repr``); NaN is encoded as ``null`` and restored
        by :meth:`from_dict`.
        """
        payload = {
            "ranked": [entry.to_dict() for entry in self.ranked],
            "candidates_considered": self.candidates_considered,
            "retrieval_seconds": self.retrieval_seconds,
            "rerank_seconds": self.rerank_seconds,
            "shards_probed": self.shards_probed,
            "shards_failed": self.shards_failed,
            "degraded": self.degraded,
        }
        if self.trace is not None:
            # Present only when tracing was requested, so untraced
            # responses stay byte-identical to pre-observability wire.
            payload["trace"] = self.trace
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryResult":
        """Rebuild a result from :meth:`to_dict` output (client side)."""
        return cls(
            ranked=[
                RankedCandidate.from_dict(entry)
                for entry in payload["ranked"]
            ],
            candidates_considered=int(payload["candidates_considered"]),
            retrieval_seconds=float(payload["retrieval_seconds"]),
            rerank_seconds=float(payload["rerank_seconds"]),
            shards_probed=int(payload["shards_probed"]),
            shards_failed=int(payload["shards_failed"]),
            degraded=bool(payload["degraded"]),
            trace=payload.get("trace"),
        )


def _lsh_hits_columnar(
    catalog: SketchCatalog,
    query_cols: SketchColumns,
    *,
    depth: int,
    min_overlap: int,
    exclude: str | None,
    lsh_bands: int | None,
    lsh_rows: int | None,
) -> list[tuple[str, int]]:
    """LSH candidate retrieval with exact-overlap ranking (columnar).

    Probes the catalog's LSH index for colliding sketches, then computes
    every survivor's *exact* key overlap with the page membership probe —
    so the hits list has the same ``(sketch_id, overlap)`` contract,
    ``min_overlap`` floor and ``(−overlap, id)`` ordering as the inverted
    backend, and downstream re-ranking is shared unchanged. The backends
    therefore differ only in recall: candidates the banding never
    collides with are missing here, everything retrieved is ranked
    identically.
    """
    threshold = max(1, min_overlap)
    ids = list(
        catalog.lsh_candidate_ids(
            query_cols.key_hashes, exclude=exclude, bands=lsh_bands, rows=lsh_rows
        )
    )
    overlaps = key_overlaps(
        query_cols, [catalog.sketch_columns(sid) for sid in ids]
    )
    hits = [
        (sid, overlap)
        for sid, overlap in zip(ids, overlaps.tolist())
        if overlap >= threshold
    ]
    hits.sort(key=lambda t: (-t[1], t[0]))
    return hits[:depth]


def retrieve_candidates(
    catalog: SketchCatalog,
    query_cols: SketchColumns,
    *,
    depth: int,
    min_overlap: int = 1,
    exclude: str | None = None,
    backend: str = "inverted",
    lsh_bands: int | None = None,
    lsh_rows: int | None = None,
) -> list[tuple[str, int]]:
    """Columnar candidate retrieval against one catalog, either backend.

    The single-query form of the pipeline's retrieval probe — a batch of
    one through :func:`retrieve_candidates_batch`:
    ``(sketch_id, overlap)`` pairs sorted by
    ``(−overlap, id)``, floored at ``min_overlap``, truncated to
    ``depth``. Because that ordering is a total order over candidates,
    per-shard lists merged under the same key and re-truncated to
    ``depth`` reproduce the single-catalog hits list exactly.
    """
    return retrieve_candidates_batch(
        catalog,
        [query_cols],
        depth=depth,
        min_overlap=min_overlap,
        excludes=[exclude],
        backend=backend,
        lsh_bands=lsh_bands,
        lsh_rows=lsh_rows,
    )[0]


def retrieve_candidates_batch(
    catalog: SketchCatalog,
    query_cols_list: list[SketchColumns],
    *,
    depth: int,
    min_overlap: int = 1,
    excludes: list[str | None] | None = None,
    backend: str = "inverted",
    lsh_bands: int | None = None,
    lsh_rows: int | None = None,
) -> list[list[tuple[str, int]]]:
    """:func:`retrieve_candidates` for many queries at once.

    The inverted backend answers the whole batch from one stacked CSR
    probe (:meth:`~repro.index.inverted.ColumnarPostings.top_overlap_batch`);
    LSH probes per query (its cost is already O(bands) each).
    """
    if depth <= 0:
        raise ValueError(f"depth must be positive, got {depth}")
    if excludes is None:
        excludes = [None] * len(query_cols_list)
    if backend == "lsh":
        return [
            _lsh_hits_columnar(
                catalog,
                cols,
                depth=depth,
                min_overlap=min_overlap,
                exclude=excl,
                lsh_bands=lsh_bands,
                lsh_rows=lsh_rows,
            )
            for cols, excl in zip(query_cols_list, excludes)
        ]
    return catalog.probe_top_overlap_batch(
        [cols.key_hashes for cols in query_cols_list],
        depth,
        excludes=excludes,
        min_overlap=min_overlap,
    )


@dataclass(frozen=True, eq=False)
class CandidatePage(PageJoin):
    """One query's assembled candidate page: everything re-ranking needs.

    The merge seam between retrieval and scoring, held columnar: the
    query's :class:`~repro.core.joined_sample.PageJoin` with its
    candidates — the join samples as one CSR block (``samples``) and the
    Eq. 1 combined-bottom-k statistics as four arrays — aligned with
    ``ids``; ``overlaps`` are the retrieval hits' own counts.

    Every per-candidate value depends only on the query and that
    candidate (never on the rest of the page), so pages assembled in
    shard- or chunk-sized groups and merged with :meth:`concat` /
    :meth:`take` are bit-identical to one monolithic assembly — the
    property the sharded router relies on (it assembles once, reading
    each candidate from its owning shard).
    """

    ids: list[str]

    @classmethod
    def assemble(
        cls,
        catalog: SketchCatalog,
        query_cols: SketchColumns,
        hits: list[tuple[str, int]],
    ) -> "CandidatePage":
        """Join + union statistics for a hits list: one
        :func:`~repro.core.joined_sample.join_page` of the hit sketches."""
        joined = join_page(
            query_cols, [catalog.sketch_columns(sid) for sid, _ in hits]
        )
        return cls(
            samples=joined.samples,
            overlaps=np.asarray([overlap for _, overlap in hits], dtype=np.int64),
            k_len=joined.k_len,
            kth=joined.kth,
            k_inter=joined.k_inter,
            exact=joined.exact,
            ids=[sid for sid, _ in hits],
        )

    @classmethod
    def concat(cls, pages: list["CandidatePage"]) -> "CandidatePage":
        """The pages' candidates back to back (one page is returned as is)."""
        return super().concat(pages, ids=[sid for page in pages for sid in page.ids])

    def take(self, rows: np.ndarray) -> "CandidatePage":
        """The candidates at ``rows``, in that order, as a new page."""
        return super().take(rows, ids=[self.ids[i] for i in rows.tolist()])


def _truths(
    ids: list[str], true_correlations: dict[str, float] | None
) -> list[float]:
    if true_correlations is None:
        return [math.nan] * len(ids)
    return [true_correlations.get(sid, math.nan) for sid in ids]


def rerank_pages(
    pages: list[CandidatePage],
    query_sketches: list[CorrelationSketch],
    k: int,
    scorer: str,
    rng_mode: str,
    true_correlations: list[dict[str, float] | None],
    rng: np.random.Generator | None,
    traces: list | None = None,
) -> list[list[RankedCandidate]]:
    """Score and rank assembled pages: the tail of every query.

    One scoring pass over all pages' samples (per-sample segment
    reductions are independent, so each query's statistics are
    bit-identical to its standalone evaluation), then per query, in
    order: the PM1 bootstrap when the scorer reads it, and the top-``k``
    ranking. Each query consumes rng exactly as a standalone
    :meth:`JoinCorrelationEngine.query` would — a fresh fixed-seed
    generator when ``rng`` is None, the shared one in query order
    otherwise. With ``traces`` the scoring pass lands in every query's
    trace as a shared ``score`` span and the per-query work as its own
    ``merge`` span.
    """
    tracing = traces is not None
    s0 = time.perf_counter() if tracing else 0.0
    stats = candidate_scores_batch(
        JoinedSamplePage.concat([page.samples for page in pages]),
        containment_ests=np.concatenate(
            [
                page.containments(sketch.distinct_keys())
                for page, sketch in zip(pages, query_sketches)
            ]
        ),
        with_bootstrap=False,
    )
    if tracing:
        s1 = time.perf_counter()
        for tr in traces:
            if tr is not None:
                tr.add("score", s0, s1, shared=True, batch_size=len(pages))

    ranked_per_query: list[list[RankedCandidate]] = []
    start = 0
    for q, page in enumerate(pages):
        m0 = time.perf_counter() if tracing else 0.0
        query_stats = stats[start : start + len(page.ids)]
        start += len(page.ids)
        query_rng = np.random.default_rng(7) if rng is None else rng
        if scorer == "rb_cib":
            apply_bootstrap(page.samples, query_stats, query_rng, rng_mode)
        ranked_per_query.append(
            rank_candidates(
                page.ids, query_stats, scorer,
                true_correlations=_truths(page.ids, true_correlations[q]),
                rng=query_rng,
                k=k,
            )
        )
        if tracing and traces[q] is not None:
            # Per-query by construction: bootstrap + ranking consume
            # this query's rng and only its candidates.
            traces[q].add("merge", m0, time.perf_counter())
    return ranked_per_query


class JoinCorrelationEngine:
    """Evaluates top-k join-correlation queries against a sketch catalog.

    Args:
        catalog: the populated sketch catalog.
        retrieval_depth: candidates fetched by key overlap before
            re-ranking (the paper's experiments use 100).
        min_overlap: minimum shared key hashes for a candidate to be
            considered joinable at all.
        rng_mode: how ``rb_cib`` queries run the PM1 bootstrap across the
            candidate page (see :data:`repro.ranking.scoring.RNG_MODES`):
            ``"batched"`` (default) resamples all candidates through the
            cross-candidate engine — statistically equivalent scores, a
            multiple faster; ``"compat"`` reproduces the per-candidate
            rng stream bit-for-bit.
        retrieval_backend: candidate-retrieval strategy (see
            :data:`RETRIEVAL_BACKENDS`): ``"inverted"`` (default) probes
            the exact inverted index; ``"lsh"`` probes the catalog's
            MinHash-LSH index — sub-linear in posting lengths, recall
            < 1 on low-overlap candidates. Retrieved candidates are
            ranked by exact key overlap and re-ranked identically under
            either backend, so rankings differ only by retrieval recall
            (quantified in ``benchmarks/bench_ablation_retrieval.py``).
        lsh_bands: LSH bands ``b`` (``"lsh"`` backend only). ``None``
            (default) keeps a warm snapshot-loaded index whatever its
            persisted banding (module default ``16`` when none exists);
            an explicit value pins the shape, rebuilding a cached index
            of a different one.
        lsh_rows: LSH rows per band ``r``, same ``None`` semantics.
            Collision threshold is roughly ``(1/b)**(1/r)`` Jaccard.
    """

    def __init__(
        self,
        catalog: SketchCatalog,
        retrieval_depth: int = 100,
        min_overlap: int = 1,
        *,
        rng_mode: str = "batched",
        retrieval_backend: str = "inverted",
        lsh_bands: int | None = None,
        lsh_rows: int | None = None,
    ) -> None:
        self.catalog = catalog
        #: All tuning state, as one frozen validated record — the same
        #: seam every other query entry point (router, session, CLI,
        #: HTTP service) constructs itself from, so the validation rules
        #: and messages cannot drift between layers. A built backend is
        #: not re-tuned: build another from ``options.merged(...)``.
        self.options = QueryOptions(
            depth=retrieval_depth,
            min_overlap=min_overlap,
            rng_mode=rng_mode,
            retrieval_backend=retrieval_backend,
            lsh_bands=lsh_bands,
            lsh_rows=lsh_rows,
        )

    @classmethod
    def from_options(cls, catalog, options: QueryOptions):
        """Build a backend from one :class:`QueryOptions` record.

        Per-call fields (``k``/``scorer``/``seed``/``on_shard_error``)
        stay on the record for the caller's ``query``/``submit`` calls.
        """
        return cls(
            catalog,
            retrieval_depth=options.depth,
            min_overlap=options.min_overlap,
            rng_mode=options.rng_mode,
            retrieval_backend=options.retrieval_backend,
            lsh_bands=options.lsh_bands,
            lsh_rows=options.lsh_rows,
        )

    def query(
        self,
        query_sketch: CorrelationSketch,
        k: int = 10,
        scorer: str = "rp_cih",
        *,
        exclude_id: str | None = None,
        true_correlations: dict[str, float] | None = None,
        rng: np.random.Generator | None = None,
        trace=None,
    ) -> QueryResult:
        """Evaluate one top-``k`` join-correlation query: a
        :meth:`query_batch` of one.

        Args:
            query_sketch: sketch of the query's ``⟨K_Q, Q⟩`` column pair.
            k: result-list size.
            scorer: scoring function name (see
                :data:`repro.ranking.SCORER_NAMES`).
            exclude_id: catalog id to exclude (the query itself, when the
                query column pair is part of the indexed corpus).
            true_correlations: optional ground truth per candidate id,
                carried through to the result for evaluation workloads.
            rng: generator for stochastic scorers (``random``) and the
                bootstrap; defaults to a fixed-seed generator so identical
                queries return identical rankings.
            trace: optional :class:`repro.obs.trace.Trace` to record the
                query's phase spans into (carried out via
                ``QueryResult.trace``). Tracing reads only the wall
                clock — never the rng — so results are bit-identical
                with or without it.
        """
        return self.query_batch(
            [query_sketch], k=k, scorer=scorer, exclude_ids=[exclude_id],
            true_correlations=[true_correlations], rng=rng,
            traces=None if trace is None else [trace],
        )[0]

    def query_batch(
        self,
        query_sketches,
        k: int = 10,
        scorer: str = "rp_cih",
        *,
        exclude_ids: list[str | None] | None = None,
        true_correlations: list[dict[str, float] | None] | None = None,
        rng: np.random.Generator | None = None,
        traces: list | None = None,
    ) -> list[QueryResult]:
        """Evaluate many top-``k`` queries through one batched pipeline.

        The serving entry point (CLI: ``query --queries-dir``): ``Q``
        concurrent queries cost one stacked retrieval probe over their
        concatenated key hashes, one shared scoring pass over every
        candidate join sample, and per-query ranking — instead of ``Q``
        full pipeline round-trips. Amortization pays most when
        per-query fixed overhead is a large fraction of the pipeline
        (small-to-moderate sketch sizes, deep candidate pages); at very
        large sketch sizes the shared per-candidate join math dominates
        and the gain tapers toward parity.

        **Parity contract**: results are bit-identical to looping
        :meth:`query` over the sketches in order — for every scorer,
        both rng modes and both retrieval backends. When ``rng`` is
        None, each query gets its own fresh fixed-seed generator; a
        caller-supplied generator is consumed in query order, exactly
        like the loop. (``retrieval_seconds``/``rerank_seconds`` are
        per-query *shares* of the batch phases — documented aggregates,
        the one field a loop cannot reproduce; per-query phase cost
        comes from ``traces``.)

        Args:
            query_sketches: the query sketches, one per query.
            k: result-list size per query.
            scorer: scoring function name, shared by the batch.
            exclude_ids: optional per-query catalog id to exclude
                (parallel to ``query_sketches``; None entries allowed).
            true_correlations: optional per-query ground-truth dicts.
            rng: generator for stochastic scorers and the bootstrap.
            traces: optional per-query :class:`repro.obs.trace.Trace`
                recorders (parallel to ``query_sketches``; None entries
                allowed) — see :meth:`query`.
        """
        return self._evaluate(
            query_sketches, k, scorer, exclude_ids, true_correlations, rng,
            traces, self._retrieve, self._assemble,
        )

    def _evaluate(
        self,
        query_sketches,
        k: int,
        scorer: str,
        exclude_ids: list[str | None] | None,
        true_correlations: list[dict[str, float] | None] | None,
        rng: np.random.Generator | None,
        traces: list | None,
        retrieve,
        assemble,
        *,
        shards_probed: int = 1,
        failed_shards=(),
    ) -> list[QueryResult]:
        """The one rendering of the query plan, for every backend.

        columnar → ``retrieve`` → ``assemble`` → :func:`rerank_pages` →
        :class:`QueryResult`. The two *stage steps* are the parts that
        depend on where the sketches live:

        * ``retrieve(query_cols, exclude_ids, traces, start)`` returns
          each query's hits list under the :func:`retrieve_candidates`
          contract;
        * ``assemble(query_cols, hits_per_query, traces, start)`` returns
          each query's :class:`CandidatePage` (which may hold fewer
          candidates than were hit, when a shard was lost in between).

        ``start`` is when the step's phase began on the pipeline's clock
        (retrieval includes lowering the sketches to columns); a step
        records its own phase spans into ``traces`` — what a phase's
        span looks like (one per query, or one shared by the batch with
        a child per shard) is the step's business. ``failed_shards`` is
        read after both steps ran, so a step may add to it.

        Three batch effects, none changing any result bit:

        * **stacked retrieval** — all queries probe the frozen postings
          with one concatenated ``searchsorted``/``bincount`` pass
          (:meth:`~repro.index.inverted.ColumnarPostings.top_overlap_batch`);
        * **shared join state** — candidates appearing in several
          queries' pages are lowered to :class:`SketchColumns` once (the
          catalog cache), so overlapping candidate sets amortize;
        * **one scoring pass** — every query's join samples enter a
          single :func:`candidate_scores_batch` call. Bootstrap (rng
          consuming) work stays per query, in order, preserving the rng
          stream of a plain loop.

        The stacked probe and the shared scoring pass have no per-query
        wall time to attribute, which is why the results' timing fields
        are equal shares (:meth:`query_batch`) and why, in ``traces``,
        the batch phases land as shared spans (``meta.shared=True`` with
        the batch size) while the work that actually runs query by query
        is timed per query.
        """
        query_sketches = list(query_sketches)
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        n_queries = len(query_sketches)
        if exclude_ids is None:
            exclude_ids = [None] * n_queries
        if true_correlations is None:
            true_correlations = [None] * n_queries
        if len(exclude_ids) != n_queries or len(true_correlations) != n_queries:
            raise ValueError(
                f"{n_queries} query sketches but {len(exclude_ids)} exclude "
                f"ids and {len(true_correlations)} truth dicts"
            )
        if traces is not None and len(traces) != n_queries:
            raise ValueError(
                f"{n_queries} query sketches but {len(traces)} traces"
            )
        for sketch in query_sketches:
            # The columnar join has no hasher to check against, so
            # comparability is enforced up front.
            check_scheme(self.catalog, sketch, "query sketch")
        if n_queries == 0:
            return []

        t0 = time.perf_counter()
        query_cols = [sketch.columnar() for sketch in query_sketches]
        hits_per_query = retrieve(query_cols, exclude_ids, traces, t0)
        t1 = time.perf_counter()
        pages = assemble(query_cols, hits_per_query, traces, t1)
        ranked_per_query = rerank_pages(
            pages, query_sketches, k, scorer, self.options.rng_mode,
            true_correlations, rng, traces,
        )
        t2 = time.perf_counter()

        retrieval_share = (t1 - t0) / n_queries
        rerank_share = (t2 - t1) / n_queries
        return [
            QueryResult(
                ranked=ranked,
                candidates_considered=len(page.ids),
                retrieval_seconds=retrieval_share,
                rerank_seconds=rerank_share,
                shards_probed=shards_probed,
                shards_failed=len(failed_shards),
                degraded=bool(failed_shards),
                trace=(
                    traces[q].to_dict()
                    if traces is not None and traces[q] is not None
                    else None
                ),
            )
            for q, (ranked, page) in enumerate(zip(ranked_per_query, pages))
        ]

    def _probe(
        self,
        catalog: SketchCatalog,
        query_cols: list[SketchColumns],
        exclude_ids: list[str | None],
    ) -> list[list[tuple[str, int]]]:
        """The batch's candidate probe of ``catalog`` — this engine's
        own, or one shard's — under this backend's options."""
        options = self.options
        return retrieve_candidates_batch(
            catalog,
            query_cols,
            depth=options.depth,
            min_overlap=options.min_overlap,
            excludes=exclude_ids,
            backend=options.retrieval_backend,
            lsh_bands=options.lsh_bands,
            lsh_rows=options.lsh_rows,
        )

    def _retrieve(self, query_cols, exclude_ids, traces, start):
        """Retrieval stage step: one stacked probe of the one catalog."""
        hits_per_query = self._probe(self.catalog, query_cols, exclude_ids)
        if traces is not None:
            end = time.perf_counter()
            for tr in traces:
                if tr is not None:
                    tr.add(
                        "retrieval", start, end,
                        shared=True, batch_size=len(query_cols),
                    )
        return hits_per_query

    def _assemble(self, query_cols, hits_per_query, traces, start):
        """Assembly stage step: one page per query, timed per query."""
        pages: list[CandidatePage] = []
        for q, (cols, hits) in enumerate(zip(query_cols, hits_per_query)):
            pages.append(CandidatePage.assemble(self.catalog, cols, hits))
            if traces is not None:
                end = time.perf_counter()
                if traces[q] is not None:
                    traces[q].add(
                        "assemble", start, end, candidates=len(hits)
                    )
                start = end
        return pages

    def query_table(
        self,
        table,
        k: int = 10,
        scorer: str = "rp_cih",
        *,
        rng: np.random.Generator | None = None,
    ) -> dict[str, QueryResult]:
        """Evaluate one query per ⟨key, numeric⟩ column pair of ``table``.

        Convenience batch API for the common "here is my dataset, find me
        everything correlated with any of its columns" interaction: every
        column pair becomes a query sketch built with the catalog's
        hashing scheme, and results are keyed by ``pair_id``.

        Evaluation rides :meth:`query_batch`, so the whole table costs
        one stacked retrieval probe and one shared scoring pass (plus
        the catalog's one-time frozen postings freeze) — with results
        bit-identical to querying each pair separately.
        """
        pairs = table.column_pairs()
        sketches = []
        for pair in pairs:
            sketch = CorrelationSketch(
                self.catalog.sketch_size,
                aggregate=self.catalog.aggregate,
                hasher=self.catalog.hasher,
                name=pair.pair_id,
            )
            keys, values = table.pair_arrays(pair)
            sketch.update_array(keys, values)
            sketches.append(sketch)
        results = self.query_batch(
            sketches,
            k=k,
            scorer=scorer,
            exclude_ids=[pair.pair_id for pair in pairs],
            rng=rng,
        )
        return {pair.pair_id: result for pair, result in zip(pairs, results)}
