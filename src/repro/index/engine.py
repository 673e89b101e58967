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

Query sketches for in-memory tables are built through the vectorized
columnar path (:meth:`repro.core.sketch.CorrelationSketch.update_array`),
which is bit-identical to streaming construction.

Two interchangeable :class:`QueryExecutor` strategies evaluate the plan:

* :class:`ColumnarQueryExecutor` (default) — the whole pipeline runs on
  arrays: the retrieval probe answers from the catalog's layered
  indexes — frozen CSR + delta − tombstones
  (:meth:`SketchCatalog.probe_top_overlap`), the candidate page stays
  columnar from the membership probe to the top-``k`` cut
  (:class:`CandidatePage`: one CSR block of join samples plus four
  union-statistics arrays, scored by
  :func:`repro.ranking.scoring.candidate_scores_batch`), and
  per-candidate result records exist only for the ``k`` entries
  returned (:func:`rerank_pages`).
* :class:`ScalarQueryExecutor` — the row-at-a-time reference
  implementation (dict-of-lists ScanCount, per-candidate dict joins and
  statistics), kept as the baseline the parity suite and the
  ``bench_query_eval`` speedup benchmark compare against.

Both return the same rankings; select with
``JoinCorrelationEngine(..., vectorized=False)`` or the CLI's
``query --no-vectorized-query``.

Orthogonally, ``rng_mode`` selects how ``rb_cib`` queries run the PM1
bootstrap across the candidate page: ``"batched"`` (default) drives all
candidates through the cross-candidate resampling engine
(:func:`repro.correlation.bootstrap.pm1_interval_page`); ``"compat"``
reproduces the historical per-candidate rng stream bit-for-bit. Both
executors honor both modes with bit-identical bootstrap statistics for a
given mode, so executor parity holds under either.

Two further serving axes (both orthogonal to the executor choice):

* ``retrieval_backend`` plugs the candidate-retrieval phase
  (:data:`RETRIEVAL_BACKENDS`): the exact inverted index (default) or
  the approximate MinHash-LSH index — candidates are ranked by exact
  key overlap either way, so the backends share re-ranking and differ
  only in retrieval recall;
* :meth:`JoinCorrelationEngine.query_batch` evaluates many queries
  through one amortized pipeline (stacked index probe, one shared
  scoring pass) with results bit-identical to looping
  :meth:`JoinCorrelationEngine.query`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core.joined_sample import (
    JoinedSample,
    JoinedSamplePage,
    join_sketches,
)
from repro.core.sketch import CorrelationSketch, SketchColumns
from repro.correlation.bootstrap import pm1_interval_batch
from repro.index.catalog import SketchCatalog
from repro.index.options import RETRIEVAL_BACKENDS, QueryOptions
from repro.kmv.estimators import unbiased_dv_estimate, unbiased_dv_estimate_batch
from repro.ranking.ranker import RankedCandidate, rank_candidates
from repro.ranking.scoring import (
    CandidateScores,
    apply_bootstrap,
    candidate_scores,
    candidate_scores_batch,
    cib_factor,
)

__all__ = [
    "RETRIEVAL_BACKENDS",  # re-exported from repro.index.options
    "CandidatePage",
    "ColumnarQueryExecutor",
    "JoinCorrelationEngine",
    "QueryExecutor",
    "QueryResult",
    "ScalarQueryExecutor",
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


def _containment_estimate(
    query: CorrelationSketch, candidate: CorrelationSketch, overlap: int
) -> float:
    """Sketch-estimated containment of the query key set in the candidate.

    Mirrors Eq. 1: intersection cardinality estimated from the combined
    bottom-k, normalized by the query's distinct-key estimate.
    """
    d_query = query.distinct_keys()
    if d_query <= 0 or overlap <= 0:
        return 0.0
    if query.saw_all_keys and candidate.saw_all_keys:
        inter = float(overlap)
    else:
        q_hashes = query.key_hashes()
        c_hashes = candidate.key_hashes()
        combined_k = min(len(query), len(candidate))
        ordered = sorted(
            q_hashes | c_hashes, key=query.hasher.unit_hash_of_key_hash
        )[:combined_k]
        if not ordered:
            return 0.0
        kth = query.hasher.unit_hash_of_key_hash(ordered[-1])
        k_inter = sum(1 for kh in ordered if kh in q_hashes and kh in c_hashes)
        inter = (k_inter / len(ordered)) * unbiased_dv_estimate(len(ordered), kth)
    return max(0.0, min(1.0, inter / d_query))


def _membership_batch(
    query: SketchColumns, candidates: list[SketchColumns]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Probe a whole candidate page against the query's sorted hashes.

    Concatenates the candidates' hash arrays and runs a single
    ``np.searchsorted``. Returns ``(in_query, positions, offsets,
    hashes)``: a boolean membership mask over the page's entries, for
    members their index in the query's arrays, the candidates' segment
    bounds and the concatenated hash array itself. Membership is
    per-element, so a candidate's slice is what probing it alone gives.
    """
    offsets = np.zeros(len(candidates) + 1, dtype=np.int64)
    np.cumsum(
        np.asarray([c.size for c in candidates], dtype=np.int64),
        out=offsets[1:],
    )
    if candidates:
        concat = np.concatenate([c.key_hashes for c in candidates])
    else:
        concat = np.empty(0, dtype=np.uint64)
    pos = np.searchsorted(query.key_hashes, concat)
    pos_clipped = np.minimum(pos, max(query.size - 1, 0))
    if query.size:
        in_query = query.key_hashes[pos_clipped] == concat
    else:
        in_query = np.zeros(concat.size, dtype=bool)
    return in_query, pos_clipped, offsets, concat


#: Scratch cells one page-kernel pass may allocate (the join grid and the
#: union rank matrix are each ``rows x width``): 512 KiB of float64, so a
#: paper-sized page (depth 100, sketch size 256: 51 200 cells) is one
#: pass and only deeper or wider pages are processed in row chunks, each
#: chunk costing ~0.1-0.2 ms of call overhead. A pass works through a
#: dozen ``rows x max|C|`` temporaries; whether those cost page faults
#: is the allocator's doing, not the chunk size's — see
#: ``repro.serving.session._pin_malloc_thresholds``.
_PAGE_SCRATCH_CELLS = 64 << 10


def _row_chunks(
    query: SketchColumns, candidates: list[SketchColumns]
) -> list[tuple[int, int]]:
    """Row ranges whose ``rows x (|Q| + max|C|)`` scratch fits the bound."""
    width = query.size + max((c.size for c in candidates), default=0)
    rows = max(1, _PAGE_SCRATCH_CELLS // max(width, 1))
    return [
        (lo, min(lo + rows, len(candidates)))
        for lo in range(0, len(candidates), rows)
    ]


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
    columns = [catalog.sketch_columns(sid) for sid in ids]
    hits: list[tuple[str, int]] = []
    for lo, hi in _row_chunks(query_cols, columns):
        in_query, _, offsets, _ = _membership_batch(query_cols, columns[lo:hi])
        members = np.concatenate(([0], np.cumsum(in_query)))
        overlaps = members[offsets[1:]] - members[offsets[:-1]]
        hits.extend(
            (sid, overlap)
            for sid, overlap in zip(ids[lo:hi], overlaps.tolist())
            if overlap >= threshold
        )
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

    The retrieval phase of :class:`ColumnarQueryExecutor`, factored out
    so a :class:`repro.serving.ShardRouter` can run the identical probe
    per shard: ``(sketch_id, overlap)`` pairs sorted by
    ``(−overlap, id)``, floored at ``min_overlap``, truncated to
    ``depth``. Because that ordering is a total order over candidates,
    per-shard lists merged under the same key and re-truncated to
    ``depth`` reproduce the single-catalog hits list exactly.
    """
    if depth <= 0:
        raise ValueError(f"depth must be positive, got {depth}")
    if backend == "lsh":
        return _lsh_hits_columnar(
            catalog,
            query_cols,
            depth=depth,
            min_overlap=min_overlap,
            exclude=exclude,
            lsh_bands=lsh_bands,
            lsh_rows=lsh_rows,
        )
    return catalog.probe_top_overlap(
        query_cols.key_hashes, depth, exclude=exclude, min_overlap=min_overlap
    )


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
    LSH probes per query (its cost is already O(bands) each). Row ``q``
    is bit-identical to the single-query call.
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
class CandidatePage:
    """One query's assembled candidate page: everything re-ranking needs.

    The merge seam between retrieval and scoring, held columnar: the
    candidates' join samples are one CSR block (``samples``) and their
    Eq. 1 combined-bottom-k statistics four arrays, all aligned with
    ``ids``. ``k_len`` / ``kth`` / ``k_inter`` describe the first
    ``min(|Q|, |C|)`` entries of the rank-ordered union of query and
    candidate hashes; ``exact`` marks the both-sketches-saw-everything
    shortcut where the raw overlap count is the exact intersection size.

    Every per-candidate value depends only on the query and that
    candidate (never on the rest of the page), so pages assembled in
    shard- or chunk-sized groups and merged with :meth:`concat` /
    :meth:`take` are bit-identical to one monolithic assembly — the
    property the scatter-gather router relies on.
    """

    ids: list[str]
    overlaps: np.ndarray
    samples: JoinedSamplePage
    k_len: np.ndarray
    kth: np.ndarray
    k_inter: np.ndarray
    exact: np.ndarray

    @classmethod
    def assemble(
        cls,
        catalog: SketchCatalog,
        query_cols: SketchColumns,
        hits: list[tuple[str, int]],
    ) -> "CandidatePage":
        """Join + union statistics for a hits list, in page-level passes.

        One membership probe, one scatter-ordered join and one row-wise
        rank partition per row chunk (:meth:`_assemble_rows`), merged
        with the page-level :meth:`concat`.
        """
        page_cols = [catalog.sketch_columns(sid) for sid, _ in hits]
        # Where each query entry stands in ascending rank order.
        rank_pos = np.empty(query_cols.size, dtype=np.int64)
        rank_pos[np.argsort(query_cols.ranks)] = np.arange(query_cols.size)
        return cls.concat(
            [
                cls._assemble_rows(
                    query_cols, rank_pos, hits[lo:hi], page_cols[lo:hi]
                )
                for lo, hi in _row_chunks(query_cols, page_cols)
            ]
        )

    @classmethod
    def _assemble_rows(
        cls,
        query: SketchColumns,
        rank_pos: np.ndarray,
        hits: list[tuple[str, int]],
        page_cols: list[SketchColumns],
    ) -> "CandidatePage":
        """The two page kernels over one row chunk.

        **Join.** A shared key hash carries the same rank on both sides
        and ranks are injective over hashes, so a candidate's matched
        pairs in ascending rank order are its members in ascending
        *query* rank position. Scattering each member's page index into
        the dense ``(candidate row, query rank position)`` grid and
        reading the filled cells row-major therefore yields every
        candidate's join in canonical order with no sort at all.

        **Union k-th rank.** The rank-ordered union of query and
        candidate hashes is the query's ranks plus the candidate's
        *non-member* ranks. Laying those side by side in one
        ``(rows, |Q| + max|C|)`` matrix — members and padding at
        ``+inf``, which can never be among the first ``k_len <= |Q|`` —
        one row-wise ``partition`` puts every row's ``k_len``-th
        smallest in place; ``k_inter`` is then the members ranked at or
        below it.
        """
        n, q_size = len(page_cols), query.size
        in_query, positions, offsets, cat_hashes = _membership_batch(
            query, page_cols
        )
        sizes = np.diff(offsets)
        cat_ranks = np.concatenate([c.ranks for c in page_cols])
        cat_values = np.concatenate([c.values for c in page_cols])
        row_of = np.repeat(np.arange(n), sizes)
        members = np.nonzero(in_query)[0]
        member_rows = row_of[members]

        grid = np.full(n * q_size, -1, dtype=np.int64)
        grid[member_rows * q_size + rank_pos[positions[members]]] = members
        ordered = grid[grid >= 0]
        pair_rows = row_of[ordered]
        key_hashes = cat_hashes[ordered]
        x = query.values[positions[ordered]]
        y = cat_values[ordered]
        missing = np.isnan(x)
        missing |= np.isnan(y)
        if missing.any():
            keep = ~missing
            key_hashes, x, y = key_hashes[keep], x[keep], y[keep]
            pair_rows = pair_rows[keep]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pair_rows, minlength=n), out=indptr[1:])

        exact = np.asarray([c.saw_all_keys for c in page_cols], dtype=bool)
        exact &= query.saw_all_keys
        k_len = np.where(exact, 0, np.minimum(q_size, sizes))
        kth = np.ones(n)
        k_inter = np.zeros(n, dtype=np.int64)
        live = k_len > 0
        if live.any():
            max_size = int(sizes.max())
            ranks = np.empty((n, q_size + max_size))
            ranks[:, :q_size] = query.ranks
            padded = ranks[:, q_size:]
            padded[...] = np.inf
            # A boolean-mask store fills row-major, i.e. in page order.
            padded[np.arange(max_size) < sizes[:, None]] = np.where(
                in_query, np.inf, cat_ranks
            )
            k_index = np.maximum(k_len, 1) - 1
            ranks.partition(np.unique(k_index[live]), axis=1)
            kth[live] = ranks[np.arange(n), k_index][live]
            inside = live[member_rows] & (cat_ranks[members] <= kth[member_rows])
            k_inter = np.bincount(member_rows[inside], minlength=n)

        return cls(
            ids=[sid for sid, _ in hits],
            overlaps=np.asarray([overlap for _, overlap in hits], dtype=np.int64),
            samples=JoinedSamplePage(
                key_hashes=key_hashes,
                x=x,
                y=y,
                indptr=indptr,
                x_ranges=np.broadcast_to(
                    np.asarray(query.value_range, dtype=np.float64), (n, 2)
                ),
                y_ranges=np.asarray(
                    [c.value_range for c in page_cols], dtype=np.float64
                ),
            ),
            k_len=k_len,
            kth=kth,
            k_inter=k_inter,
            exact=exact,
        )

    @classmethod
    def concat(cls, pages: list["CandidatePage"]) -> "CandidatePage":
        """The pages' candidates back to back (one page is returned as is)."""
        if len(pages) == 1:
            return pages[0]

        def column(name: str, dtype) -> np.ndarray:
            parts = [np.empty(0, dtype=dtype)] + [getattr(p, name) for p in pages]
            return np.concatenate(parts)

        return cls(
            ids=[sid for page in pages for sid in page.ids],
            overlaps=column("overlaps", np.int64),
            samples=JoinedSamplePage.concat([page.samples for page in pages]),
            k_len=column("k_len", np.int64),
            kth=column("kth", np.float64),
            k_inter=column("k_inter", np.int64),
            exact=column("exact", bool),
        )

    def take(self, rows: np.ndarray) -> "CandidatePage":
        """The candidates at ``rows``, in that order, as a new page."""
        return CandidatePage(
            ids=[self.ids[i] for i in rows.tolist()],
            overlaps=self.overlaps[rows],
            samples=self.samples.take(rows),
            k_len=self.k_len[rows],
            kth=self.kth[rows],
            k_inter=self.k_inter[rows],
            exact=self.exact[rows],
        )

    def containments(self, d_query: float) -> np.ndarray:
        """Vectorized Eq. 1 containment estimates for the page.

        Applies the same arithmetic as :func:`_containment_estimate`
        elementwise — one :func:`unbiased_dv_estimate_batch` call for the
        whole page — so each estimate is bit-identical to the scalar
        function's.
        """
        count = len(self.ids)
        if d_query <= 0:
            return np.zeros(count)
        dv = unbiased_dv_estimate_batch(
            self.k_len, self.kth, np.zeros(count, dtype=bool)
        )
        safe_len = np.maximum(self.k_len, 1).astype(np.float64)
        inter = (self.k_inter.astype(np.float64) / safe_len) * dv
        inter = np.where(self.exact, self.overlaps.astype(np.float64), inter)
        contained = np.minimum(1.0, np.maximum(0.0, inter / d_query))
        zero = (~self.exact & (self.k_len == 0)) | (self.overlaps <= 0)
        return np.where(zero, 0.0, contained)


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
    """Score and rank assembled pages: the tail of every columnar query.

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
                true_correlations=QueryExecutor._truths(
                    page.ids, true_correlations[q]
                ),
                rng=query_rng,
                k=k,
            )
        )
        if tracing and traces[q] is not None:
            # Per-query by construction: bootstrap + ranking consume
            # this query's rng and only its candidates.
            traces[q].add("merge", m0, time.perf_counter())
    return ranked_per_query


class QueryExecutor:
    """Strategy interface for one top-``k`` query evaluation.

    Executors read ``catalog`` / ``retrieval_depth`` / ``min_overlap``
    from the owning engine at execution time, so tuning the engine after
    construction behaves identically under both strategies. Inputs are
    validated by :meth:`JoinCorrelationEngine.query` before dispatch.
    """

    def __init__(self, engine: "JoinCorrelationEngine") -> None:
        self.engine = engine

    def execute(
        self,
        query_sketch: CorrelationSketch,
        k: int,
        scorer: str,
        *,
        exclude_id: str | None,
        true_correlations: dict[str, float] | None,
        rng: np.random.Generator,
        trace=None,
    ) -> QueryResult:
        raise NotImplementedError

    @staticmethod
    def _truths(
        ids: list[str], true_correlations: dict[str, float] | None
    ) -> list[float]:
        if true_correlations is None:
            return [math.nan] * len(ids)
        return [true_correlations.get(sid, math.nan) for sid in ids]


class ScalarQueryExecutor(QueryExecutor):
    """Row-at-a-time reference path (pre-columnar behavior, bit for bit
    under ``rng_mode="compat"``).

    One dict-based ScanCount probe, then per candidate: a dict-set sketch
    join, a sorted-union containment estimate and a full
    :func:`candidate_scores` round-trip. Under ``rng_mode="batched"`` the
    PM1 bootstrap alone moves to the shared cross-candidate engine so the
    scalar path stays ranking-identical to the columnar one in every mode.
    """

    def _lsh_hits(
        self, query_sketch: CorrelationSketch, exclude_id: str | None
    ) -> list[tuple[str, int]]:
        """Set-based reference of :func:`_lsh_hits_columnar` — identical
        candidate set (signatures are order-free) and identical exact
        overlaps (set intersection vs sorted membership)."""
        engine = self.engine
        q_hashes = query_sketch.key_hashes()
        threshold = max(1, engine.min_overlap)
        hits: list[tuple[str, int]] = []
        for sid in engine.catalog.lsh_candidate_ids(
            q_hashes,
            exclude=exclude_id,
            bands=engine.lsh_bands,
            rows=engine.lsh_rows,
        ):
            overlap = len(q_hashes & engine.catalog.get(sid).key_hashes())
            if overlap >= threshold:
                hits.append((sid, overlap))
        hits.sort(key=lambda t: (-t[1], t[0]))
        return hits[: engine.retrieval_depth]

    def execute(
        self,
        query_sketch: CorrelationSketch,
        k: int,
        scorer: str,
        *,
        exclude_id: str | None,
        true_correlations: dict[str, float] | None,
        rng: np.random.Generator,
        trace=None,
    ) -> QueryResult:
        engine = self.engine
        t0 = time.perf_counter()
        if engine.retrieval_backend == "lsh":
            hits = self._lsh_hits(query_sketch, exclude_id)
        else:
            hits = engine.catalog.index.top_overlap(
                query_sketch.key_hashes(),
                engine.retrieval_depth,
                exclude=exclude_id,
                min_overlap=engine.min_overlap,
            )
        t1 = time.perf_counter()

        # The PM1 bootstrap costs hundreds of resamples per candidate;
        # compute it only when the chosen scorer reads r_b / cib. Under
        # rng_mode="batched" it runs after the per-candidate loop so both
        # executors share one cross-candidate engine invocation (and hence
        # bit-identical bootstrap statistics).
        needs_bootstrap = scorer == "rb_cib"
        per_candidate_bootstrap = needs_bootstrap and engine.rng_mode == "compat"

        ids: list[str] = []
        samples: list[JoinedSample] = []
        stats: list[CandidateScores] = []
        for sid, overlap in hits:
            candidate = engine.catalog.get(sid)
            sample = join_sketches(query_sketch, candidate).drop_nan()
            containment = _containment_estimate(query_sketch, candidate, overlap)
            stat = candidate_scores(
                sample,
                containment_est=containment,
                rng=rng,
                with_bootstrap=per_candidate_bootstrap,
            )
            ids.append(sid)
            samples.append(sample)
            stats.append(stat)

        if needs_bootstrap and not per_candidate_bootstrap:
            eligible = [
                s.size >= 2 and not math.isnan(st.r_pearson)
                for s, st in zip(samples, stats)
            ]
            boots = pm1_interval_batch(
                [s.x for s in samples],
                [s.y for s in samples],
                rng=rng,
                active=eligible,
            )
            stats = [
                replace(
                    st,
                    r_bootstrap=boot.estimate,
                    cib_factor=cib_factor(boot.low, boot.high),
                )
                if ok
                else st
                for st, boot, ok in zip(stats, boots, eligible)
            ]
        ts = time.perf_counter() if trace is not None else 0.0

        ranked = rank_candidates(
            ids, stats, scorer,
            true_correlations=self._truths(ids, true_correlations),
            rng=rng,
        )[:k]
        t2 = time.perf_counter()

        if trace is not None:
            # The scalar path interleaves join+score per candidate, so
            # its phases are retrieval / score (join+stats+bootstrap) /
            # merge (ranking) — no separate assemble pass exists.
            trace.add("retrieval", t0, t1, candidates=len(hits))
            trace.add("score", t1, ts)
            trace.add("merge", ts, t2)
        return QueryResult(
            ranked=ranked,
            candidates_considered=len(hits),
            retrieval_seconds=t1 - t0,
            rerank_seconds=t2 - t1,
            trace=None if trace is None else trace.to_dict(),
        )


class ColumnarQueryExecutor(QueryExecutor):
    """Vectorized executor: frozen postings, merge joins, batch scoring.

    Produces the same rankings as :class:`ScalarQueryExecutor` (the
    parity suite pins this): retrieval counts, join samples, containment
    estimates and bootstrap statistics are bit-identical; the batched
    moment statistics agree to within float summation order.
    """

    def execute(
        self,
        query_sketch: CorrelationSketch,
        k: int,
        scorer: str,
        *,
        exclude_id: str | None,
        true_correlations: dict[str, float] | None,
        rng: np.random.Generator,
        trace=None,
    ) -> QueryResult:
        engine = self.engine
        t0 = time.perf_counter()
        query_cols = query_sketch.columnar()
        hits = retrieve_candidates(
            engine.catalog,
            query_cols,
            depth=engine.retrieval_depth,
            min_overlap=engine.min_overlap,
            exclude=exclude_id,
            backend=engine.retrieval_backend,
            lsh_bands=engine.lsh_bands,
            lsh_rows=engine.lsh_rows,
        )
        t1 = time.perf_counter()

        page = CandidatePage.assemble(engine.catalog, query_cols, hits)
        if trace is not None:
            trace.add("retrieval", t0, t1, candidates=len(hits))
            trace.add("assemble", t1, time.perf_counter())
        (ranked,) = rerank_pages(
            [page], [query_sketch], k, scorer, engine.rng_mode,
            [true_correlations], rng,
            None if trace is None else [trace],
        )
        t2 = time.perf_counter()
        return QueryResult(
            ranked=ranked,
            candidates_considered=len(hits),
            retrieval_seconds=t1 - t0,
            rerank_seconds=t2 - t1,
            trace=None if trace is None else trace.to_dict(),
        )

    def execute_batch(
        self,
        query_sketches: list[CorrelationSketch],
        k: int,
        scorer: str,
        *,
        exclude_ids: list[str | None],
        true_correlations: list[dict[str, float] | None],
        rng: np.random.Generator | None,
        traces: list | None = None,
    ) -> list[QueryResult]:
        """Evaluate many queries through one amortized columnar pipeline.

        Three batch effects, none changing any result bit
        (:meth:`JoinCorrelationEngine.query_batch` documents the parity
        contract):

        * **stacked retrieval** — all queries probe the frozen postings
          with one concatenated ``searchsorted``/``bincount`` pass
          (:meth:`~repro.index.inverted.ColumnarPostings.top_overlap_batch`);
        * **shared join state** — candidates appearing in several
          queries' pages are lowered to :class:`SketchColumns` once (the
          catalog cache), so overlapping candidate sets amortize;
        * **one scoring pass** — every query's join samples enter a
          single :func:`candidate_scores_batch` call; per-sample segment
          reductions are independent, so each query's statistics are
          bit-identical to its standalone evaluation. Bootstrap (rng
          consuming) work stays per query, in order, preserving the rng
          stream of a plain loop.

        ``retrieval_seconds``/``rerank_seconds`` in the returned
        results are **documented aggregates**: equal per-query shares
        of the batch phases (the stacked probe and shared scoring pass
        have no per-query wall time to attribute). Callers that need
        genuinely per-query phase cost pass ``traces`` (one
        :class:`repro.obs.trace.Trace` or None per query): the batch
        phases land as shared spans (``meta.shared=True`` with the
        batch size), while the assemble and merge phases — the work
        that actually runs query by query — are timed per query.
        """
        engine = self.engine
        n_queries = len(query_sketches)
        if n_queries == 0:
            return []
        if traces is not None and len(traces) != n_queries:
            raise ValueError(
                f"{n_queries} query sketches but {len(traces)} traces"
            )
        tracing = traces is not None
        t0 = time.perf_counter()
        query_cols = [sketch.columnar() for sketch in query_sketches]
        hits_per_query = retrieve_candidates_batch(
            engine.catalog,
            query_cols,
            depth=engine.retrieval_depth,
            min_overlap=engine.min_overlap,
            excludes=exclude_ids,
            backend=engine.retrieval_backend,
            lsh_bands=engine.lsh_bands,
            lsh_rows=engine.lsh_rows,
        )
        t1 = time.perf_counter()
        if tracing:
            for tr in traces:
                if tr is not None:
                    tr.add(
                        "retrieval", t0, t1,
                        shared=True, batch_size=n_queries,
                    )

        pages: list[CandidatePage] = []
        for q, (cols, hits) in enumerate(zip(query_cols, hits_per_query)):
            a0 = time.perf_counter() if tracing else 0.0
            pages.append(CandidatePage.assemble(engine.catalog, cols, hits))
            if tracing and traces[q] is not None:
                traces[q].add(
                    "assemble", a0, time.perf_counter(),
                    candidates=len(hits),
                )
        ranked_per_query = rerank_pages(
            pages, query_sketches, k, scorer, engine.rng_mode,
            true_correlations, rng, traces,
        )
        t2 = time.perf_counter()

        retrieval_share = (t1 - t0) / n_queries
        rerank_share = (t2 - t1) / n_queries
        return [
            QueryResult(
                ranked=ranked,
                candidates_considered=len(hits_per_query[q]),
                retrieval_seconds=retrieval_share,
                rerank_seconds=rerank_share,
                trace=(
                    traces[q].to_dict()
                    if tracing and traces[q] is not None
                    else None
                ),
            )
            for q, ranked in enumerate(ranked_per_query)
        ]


class JoinCorrelationEngine:
    """Evaluates top-k join-correlation queries against a sketch catalog.

    Args:
        catalog: the populated sketch catalog.
        retrieval_depth: candidates fetched by key overlap before
            re-ranking (the paper's experiments use 100).
        min_overlap: minimum shared key hashes for a candidate to be
            considered joinable at all.
        vectorized: evaluate queries with the columnar executor
            (default). Disable to run the row-at-a-time reference path —
            same rankings, ~an order of magnitude slower re-ranking; used
            for debugging and as the benchmark baseline.
        rng_mode: how ``rb_cib`` queries run the PM1 bootstrap across the
            candidate page (see :data:`repro.ranking.scoring.RNG_MODES`):
            ``"batched"`` (default) resamples all candidates through the
            cross-candidate engine — statistically equivalent scores, a
            multiple faster; ``"compat"`` reproduces the per-candidate
            rng stream bit-for-bit. Both executors honor both modes, so
            scalar/columnar rankings stay identical either way.
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
        vectorized: bool = True,
        rng_mode: str = "batched",
        retrieval_backend: str = "inverted",
        lsh_bands: int | None = None,
        lsh_rows: int | None = None,
    ) -> None:
        # All tuning state lives in one validated QueryOptions record —
        # the same seam every other query entry point (router, worker
        # pool, CLI, HTTP service) construct themselves from, so the
        # validation rules and messages cannot drift between layers.
        self.catalog = catalog
        self._options = QueryOptions(
            depth=retrieval_depth,
            min_overlap=min_overlap,
            vectorized=vectorized,
            rng_mode=rng_mode,
            retrieval_backend=retrieval_backend,
            lsh_bands=lsh_bands,
            lsh_rows=lsh_rows,
        )
        self.executor: QueryExecutor = (
            ColumnarQueryExecutor(self) if vectorized else ScalarQueryExecutor(self)
        )

    @classmethod
    def from_options(
        cls, catalog: SketchCatalog, options: QueryOptions
    ) -> "JoinCorrelationEngine":
        """Build an engine from one :class:`QueryOptions` record.

        Per-query fields (``k``, ``scorer``, ``seed``) stay on the
        options record for the caller's ``query``/``submit`` calls;
        the resilience fields (``deadline_ms``/``on_shard_error``) have
        no monolithic surface and are ignored here — a
        :class:`~repro.serving.session.QuerySession` rejects forwarding
        them to an engine backend.
        """
        return cls(
            catalog,
            retrieval_depth=options.depth,
            min_overlap=options.min_overlap,
            vectorized=options.vectorized,
            rng_mode=options.rng_mode,
            retrieval_backend=options.retrieval_backend,
            lsh_bands=options.lsh_bands,
            lsh_rows=options.lsh_rows,
        )

    @property
    def options(self) -> QueryOptions:
        """The engine's tuning state as one frozen record."""
        return self._options

    def _replace_options(self, **changes) -> None:
        # dataclasses.replace re-runs __post_init__, so attribute
        # assignment keeps the constructor's validation.
        self._options = replace(self._options, **changes)

    @property
    def retrieval_depth(self) -> int:
        return self._options.depth

    @retrieval_depth.setter
    def retrieval_depth(self, value: int) -> None:
        self._replace_options(depth=value)

    @property
    def min_overlap(self) -> int:
        return self._options.min_overlap

    @min_overlap.setter
    def min_overlap(self, value: int) -> None:
        self._replace_options(min_overlap=value)

    @property
    def vectorized(self) -> bool:
        return self._options.vectorized

    @vectorized.setter
    def vectorized(self, value: bool) -> None:
        self._replace_options(vectorized=value)
        self.executor = (
            ColumnarQueryExecutor(self) if value else ScalarQueryExecutor(self)
        )

    @property
    def rng_mode(self) -> str:
        return self._options.rng_mode

    @rng_mode.setter
    def rng_mode(self, value: str) -> None:
        self._replace_options(rng_mode=value)

    @property
    def retrieval_backend(self) -> str:
        return self._options.retrieval_backend

    @retrieval_backend.setter
    def retrieval_backend(self, value: str) -> None:
        self._replace_options(retrieval_backend=value)

    @property
    def lsh_bands(self) -> int | None:
        return self._options.lsh_bands

    @lsh_bands.setter
    def lsh_bands(self, value: int | None) -> None:
        self._replace_options(lsh_bands=value)

    @property
    def lsh_rows(self) -> int | None:
        return self._options.lsh_rows

    @lsh_rows.setter
    def lsh_rows(self, value: int | None) -> None:
        self._replace_options(lsh_rows=value)

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
        """Evaluate one top-``k`` join-correlation query.

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
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self._check_scheme(query_sketch)
        if rng is None:
            rng = np.random.default_rng(7)
        return self.executor.execute(
            query_sketch,
            k,
            scorer,
            exclude_id=exclude_id,
            true_correlations=true_correlations,
            rng=rng,
            trace=trace,
        )

    def _check_scheme(self, query_sketch: CorrelationSketch) -> None:
        if query_sketch.hasher.scheme_id != self.catalog.hasher.scheme_id:
            # The scalar path would fail inside join_sketches at the first
            # candidate; the columnar join has no hasher to check against,
            # so enforce comparability up front for both executors.
            raise ValueError(
                "query sketch hashing scheme "
                f"{query_sketch.hasher!r} differs from catalog scheme "
                f"{self.catalog.hasher!r}"
            )

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

        The multi-query serving entry point: ``Q`` concurrent queries
        cost one stacked retrieval probe over their concatenated key
        hashes, one shared scoring tensor pass over every candidate join
        sample, and per-query ranking — instead of ``Q`` full pipeline
        round-trips (``benchmarks/bench_batch_query.py`` quantifies the
        throughput gain; CLI: ``query --queries-dir``). Amortization
        pays most when per-query fixed overhead is a large fraction of
        the pipeline (small-to-moderate sketch sizes, deep candidate
        pages); at very large sketch sizes the shared per-candidate join
        math dominates and the gain tapers toward parity.

        **Parity contract**: results are bit-identical to looping
        :meth:`query` over the sketches in order — for every scorer,
        both rng modes and both retrieval backends. When ``rng`` is
        None, each query gets the same fresh fixed-seed generator
        :meth:`query` would create; a caller-supplied generator is
        consumed in query order, exactly like the loop.
        (``retrieval_seconds``/``rerank_seconds`` are per-query
        *shares* of the batch phases — documented aggregates, the one
        field a loop cannot reproduce; per-query phase cost comes from
        ``traces``.)

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
            self._check_scheme(sketch)
        if not self.vectorized:
            # Reference loop (trivially bit-identical to the batch path).
            return [
                self.query(
                    sketch, k=k, scorer=scorer,
                    exclude_id=exclude, true_correlations=truths, rng=rng,
                    trace=None if traces is None else traces[i],
                )
                for i, (sketch, exclude, truths) in enumerate(
                    zip(query_sketches, exclude_ids, true_correlations)
                )
            ]
        return self.executor.execute_batch(
            query_sketches,
            k,
            scorer,
            exclude_ids=exclude_ids,
            true_correlations=true_correlations,
            rng=rng,
            traces=traces,
        )

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

        Evaluation rides :meth:`query_batch`, so under the columnar
        executor the whole table costs one stacked retrieval probe and
        one shared scoring pass (plus the catalog's one-time frozen
        postings freeze) — with results bit-identical to querying each
        pair separately.
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
