"""Row-at-a-time reference for the whole top-k query.

The paper's plan (Section 5.5) one candidate at a time: a dict-based
ScanCount probe (or a set-based LSH overlap), then per candidate a
dict-set sketch join, a sorted-union containment estimate and a full
:func:`candidate_scores` round-trip, under both rng modes. This is the
code the columnar pipeline (``JoinCorrelationEngine.query_batch``)
replaced; it lives here — not in ``src/`` — as the oracle the parity
suites compare the pipeline against: retrieval counts, join samples,
containment estimates and bootstrap statistics bit for bit, the batched
moment statistics to within float summation order.
"""

import math
from dataclasses import replace

import numpy as np

from repro.core.joined_sample import join_sketches
from repro.core.sketch import CorrelationSketch
from repro.correlation.bootstrap import pm1_interval_batch
from repro.index.catalog import SketchCatalog
from repro.index.engine import QueryResult
from repro.index.options import QueryOptions
from repro.kmv.estimators import unbiased_dv_estimate
from repro.ranking.ranker import rank_candidates
from repro.ranking.scoring import candidate_scores, cib_factor

#: Scorers whose columnar statistics are bit-identical to the scalar
#: path's (no reduceat-summed moments in the score formula).
EXACT_SCORERS = ("rb_cib", "jc", "jc_est", "random")


def assert_results_match(a: QueryResult, b: QueryResult, scorer: str) -> None:
    """The parity contract between the oracle's answer and the pipeline's."""
    assert a.candidates_considered == b.candidates_considered
    ids_a = [e.candidate_id for e in a.ranked]
    ids_b = [e.candidate_id for e in b.ranked]
    assert ids_a == ids_b, f"{scorer}: ranking mismatch"
    scores_a = np.asarray([e.score for e in a.ranked])
    scores_b = np.asarray([e.score for e in b.ranked])
    if scorer in EXACT_SCORERS:
        assert (scores_a == scores_b).all(), f"{scorer}: scores not bit-identical"
    else:
        np.testing.assert_allclose(
            scores_a, scores_b, rtol=1e-9, atol=1e-12, err_msg=scorer
        )
    for ea, eb in zip(a.ranked, b.ranked):
        assert ea.stats.sample_size == eb.stats.sample_size
        assert ea.stats.containment_est == eb.stats.containment_est
        assert math.isclose(
            ea.true_correlation, eb.true_correlation, rel_tol=0.0, abs_tol=0.0
        ) or (math.isnan(ea.true_correlation) and math.isnan(eb.true_correlation))


def containment_estimate(
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


def lsh_hits(
    catalog: SketchCatalog,
    query_sketch: CorrelationSketch,
    options: QueryOptions,
    exclude_id: str | None,
) -> list[tuple[str, int]]:
    """Set-based LSH retrieval: the colliding sketches (signatures are
    order-free), ranked by exact overlap (set intersection)."""
    q_hashes = query_sketch.key_hashes()
    threshold = max(1, options.min_overlap)
    hits: list[tuple[str, int]] = []
    for sid in catalog.lsh_candidate_ids(
        q_hashes,
        exclude=exclude_id,
        bands=options.lsh_bands,
        rows=options.lsh_rows,
    ):
        overlap = len(q_hashes & catalog.get(sid).key_hashes())
        if overlap >= threshold:
            hits.append((sid, overlap))
    hits.sort(key=lambda t: (-t[1], t[0]))
    return hits[: options.depth]


def scalar_query(
    catalog: SketchCatalog,
    query_sketch: CorrelationSketch,
    k: int = 10,
    scorer: str = "rp_cih",
    *,
    options: QueryOptions = QueryOptions(),
    exclude_id: str | None = None,
    true_correlations: dict[str, float] | None = None,
    rng: np.random.Generator | None = None,
) -> QueryResult:
    """One query, the way ``JoinCorrelationEngine.query`` must answer it.

    ``options`` supplies the engine-level fields (depth, min_overlap,
    rng_mode, retrieval_backend, lsh_bands/lsh_rows) — pass a backend's
    own ``options`` record to mirror it. Under ``rng_mode="batched"`` the
    PM1 bootstrap alone runs through the shared cross-candidate engine,
    after the per-candidate loop, so its statistics are the pipeline's
    bit for bit in that mode too. Timing fields are zero.
    """
    if rng is None:
        rng = np.random.default_rng(7)
    if options.retrieval_backend == "lsh":
        hits = lsh_hits(catalog, query_sketch, options, exclude_id)
    else:
        hits = catalog.index.top_overlap(
            query_sketch.key_hashes(),
            options.depth,
            exclude=exclude_id,
            min_overlap=options.min_overlap,
        )

    # The PM1 bootstrap costs hundreds of resamples per candidate;
    # compute it only when the chosen scorer reads r_b / cib.
    needs_bootstrap = scorer == "rb_cib"
    per_candidate_bootstrap = needs_bootstrap and options.rng_mode == "compat"

    ids, samples, stats = [], [], []
    for sid, overlap in hits:
        candidate = catalog.get(sid)
        sample = join_sketches(query_sketch, candidate).drop_nan()
        ids.append(sid)
        samples.append(sample)
        stats.append(
            candidate_scores(
                sample,
                containment_est=containment_estimate(
                    query_sketch, candidate, overlap
                ),
                rng=rng,
                with_bootstrap=per_candidate_bootstrap,
            )
        )

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

    if true_correlations is None:
        truths = [math.nan] * len(ids)
    else:
        truths = [true_correlations.get(sid, math.nan) for sid in ids]
    ranked = rank_candidates(
        ids, stats, scorer, true_correlations=truths, rng=rng
    )[:k]
    return QueryResult(
        ranked=ranked,
        candidates_considered=len(hits),
        retrieval_seconds=0.0,
        rerank_seconds=0.0,
    )
