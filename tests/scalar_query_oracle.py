"""Row-at-a-time reference for the whole top-k query.

The paper's plan (Section 5.5) one candidate at a time: a dict-based
ScanCount probe (or a set-based LSH overlap), then per candidate a
dict-set sketch join, a sorted-union containment estimate and a full
:func:`candidate_scores` round-trip, under both rng modes, ranked by the
per-record scorer :func:`score_records`. This is the code the columnar
pipeline (``JoinCorrelationEngine.query_batch``, ``candidate_scores_batch``
and the column arithmetic of ``score_candidates``) replaced; it lives
here — not in ``src/`` — as the oracle the parity suites compare the
pipeline against: retrieval counts, join samples, containment estimates,
bootstrap statistics and scores bit for bit, the batched moment
statistics to within float summation order.

Also here: the list-shaped entries the columnar code no longer needs —
:func:`pm1_interval_batch` (a sample list through the PM1 page engine),
:func:`page_of` (a sample list lowered to a ``JoinedSamplePage``) and
:func:`score_columns` (a record list as ``ScoreColumns``).
"""

import math
from collections.abc import Sequence
from dataclasses import fields, replace

import numpy as np

from repro.bounds.hoeffding import hfd_interval
from repro.core.joined_sample import JoinedSample, JoinedSamplePage, join_sketches
from repro.core.sketch import CorrelationSketch
from repro.correlation.bootstrap import (
    BATCH_ROUND_REPLICATES,
    PM1_REPLICATES,
    BootstrapResult,
    pm1_interval,
    pm1_interval_page,
)
from repro.correlation.fisher import clamped_fisher_se
from repro.correlation.pearson import pearson
from repro.index.catalog import SketchCatalog
from repro.index.engine import QueryResult
from repro.index.options import QueryOptions
from repro.kmv.estimators import unbiased_dv_estimate
from repro.ranking.ranker import RankedCandidate
from repro.ranking.scoring import SCORER_NAMES, CandidateScores, ScoreColumns

from scancount_oracle import index_of

# -- per-candidate statistics and the per-record scorer -----------------------


def _abs_or_zero(r: float) -> float:
    return 0.0 if math.isnan(r) else abs(r)


def sez_factor(sample_size: int) -> float:
    """``1 − 1/sqrt(max(4, n) − 3)`` — in [0, 1), 0 at n ≤ 4."""
    return 1.0 - clamped_fisher_se(sample_size)


def cib_factor(ci_low: float, ci_high: float) -> float:
    """``1 − (ρ^high − ρ^low)/2`` from the PM1 interval, floored at 0."""
    if math.isnan(ci_low) or math.isnan(ci_high):
        return 0.0
    return max(0.0, 1.0 - (ci_high - ci_low) / 2.0)


def cih_factors(ci_lengths: list[float]) -> list[float]:
    """Min-max normalize HFD CI lengths over a ranked list (the ``cih``).

    Candidates with NaN lengths receive factor 0 (maximum risk). When all
    finite lengths are equal the normalization is degenerate; every finite
    candidate then gets factor 1 (no discrimination, no penalty).
    """
    finite = [c for c in ci_lengths if not math.isnan(c)]
    if not finite:
        return [0.0 for _ in ci_lengths]
    lo, hi = min(finite), max(finite)
    span = hi - lo
    out = []
    for c in ci_lengths:
        if math.isnan(c):
            out.append(0.0)
        elif span <= 0:
            out.append(1.0)
        else:
            out.append(1.0 - (c - lo) / span)
    return out


def candidate_scores(
    sample: JoinedSample,
    *,
    containment_est: float = 0.0,
    containment_true: float = math.nan,
    alpha: float = 0.05,
    rng: np.random.Generator | None = None,
    with_bootstrap: bool = True,
) -> CandidateScores:
    """Compute all per-candidate scoring statistics from a sketch join.

    Args:
        sample: NaN-filtered joined sample from ``join_sketches(...)``.
        containment_est: sketch-based containment estimate (``ĵc``).
        containment_true: exact containment when available (``jc``).
        alpha: miscoverage level for the HFD interval.
        rng: generator for the PM1 bootstrap (seeded per-sample if None).
        with_bootstrap: the PM1 bootstrap is by far the most expensive
            statistic (hundreds of resamples); pass False when the scoring
            function in use does not need ``r_b``/``cib`` — this is what
            keeps query latency interactive (Section 5.5, and the paper's
            point that Hoeffding CIs deliver bootstrap-quality rankings at
            a fraction of the cost).
    """
    r_p = pearson(sample.x, sample.y)
    n = sample.size

    if rng is None:
        rng = np.random.default_rng(n * 2_654_435_761 % (2**32) + 17)

    if with_bootstrap and n >= 2 and not math.isnan(r_p):
        boot = pm1_interval(sample.x, sample.y, rng=rng)
        r_b = boot.estimate
        cib = cib_factor(boot.low, boot.high)
    else:
        r_b = math.nan
        cib = 0.0

    c_low, c_high = sample.combined_range()
    hfd = hfd_interval(sample.x, sample.y, c_low, c_high, alpha)
    hfd_len = hfd.length if not math.isnan(hfd.length) else math.nan

    return CandidateScores(
        r_pearson=r_p,
        r_bootstrap=r_b,
        sample_size=n,
        sez_factor=sez_factor(n),
        cib_factor=cib,
        hfd_ci_length=hfd_len,
        containment_est=containment_est,
        containment_true=containment_true,
    )


def score_records(
    records: Sequence[CandidateScores],
    scorer: str,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """One named scoring function over a record list, field by field in
    Python floats — the reference ``score_candidates`` is held to."""

    def column(name: str) -> list:
        return [getattr(s, name) for s in records]

    if scorer == "rp":
        return [_abs_or_zero(r) for r in column("r_pearson")]
    if scorer == "rp_sez":
        return [
            _abs_or_zero(r) * f
            for r, f in zip(column("r_pearson"), column("sez_factor"))
        ]
    if scorer == "rb_cib":
        return [
            _abs_or_zero(r) * f
            for r, f in zip(column("r_bootstrap"), column("cib_factor"))
        ]
    if scorer == "rp_cih":
        cih = cih_factors(column("hfd_ci_length"))
        return [_abs_or_zero(r) * f for r, f in zip(column("r_pearson"), cih)]
    if scorer == "jc":
        return [0.0 if math.isnan(c) else c for c in column("containment_true")]
    if scorer == "jc_est":
        return column("containment_est")
    if scorer == "random":
        if rng is None:
            rng = np.random.default_rng()
        return list(rng.uniform(0.0, 1.0, size=len(records)))
    raise ValueError(f"unknown scorer {scorer!r}; expected one of {SCORER_NAMES}")


def rank_records(
    candidate_ids: list[str],
    records: Sequence[CandidateScores],
    scorer: str,
    *,
    true_correlations: list[float] | None = None,
    rng: np.random.Generator | None = None,
    k: int | None = None,
) -> list[RankedCandidate]:
    """``rank_candidates`` over a record list: :func:`score_records`, then
    the same ``(−score, id)`` sort."""
    if true_correlations is None:
        true_correlations = [math.nan] * len(candidate_ids)
    scores = score_records(records, scorer, rng=rng)
    order = sorted(
        range(len(candidate_ids)), key=lambda i: (-scores[i], candidate_ids[i])
    )
    return [
        RankedCandidate(candidate_ids[i], scores[i], records[i], true_correlations[i])
        for i in order[:k]
    ]


def score_columns(records: Sequence[CandidateScores]) -> ScoreColumns:
    """A record list as the ``ScoreColumns`` scoring and ranking read."""
    return ScoreColumns(
        *(
            np.array(
                [getattr(r, f.name) for r in records],
                dtype=np.int64 if f.name == "sample_size" else np.float64,
            )
            for f in fields(ScoreColumns)
        )
    )


def page_of(samples: Sequence[JoinedSample]) -> JoinedSamplePage:
    """Lower a plain sample list to the CSR form."""
    count = len(samples)
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(
        np.asarray([s.size for s in samples], dtype=np.int64),
        out=indptr[1:],
    )

    def column(name: str, dtype) -> np.ndarray:
        if not count:
            return np.empty(0, dtype=dtype)
        return np.concatenate([getattr(s, name) for s in samples])

    def ranges(name: str) -> np.ndarray:
        return np.asarray(
            [getattr(s, name) for s in samples], dtype=np.float64
        ).reshape(count, 2)

    return JoinedSamplePage(
        key_hashes=column("key_hashes", np.uint64),
        x=column("x", np.float64),
        y=column("y", np.float64),
        indptr=indptr,
        x_ranges=ranges("x_range"),
        y_ranges=ranges("y_range"),
    )


def pm1_interval_batch(
    xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    rng: np.random.Generator | None = None,
    *,
    active: Sequence[bool] | None = None,
    round_replicates: int = BATCH_ROUND_REPLICATES,
    max_replicates: int = PM1_REPLICATES,
) -> list[BootstrapResult]:
    """PM1 bootstrap intervals for a whole candidate list in one engine run.

    The list-shaped face of :func:`pm1_interval_page`: the samples are
    laid back to back (CSR) and resampled by that one engine, so both
    entries return identical statistics for identical samples and rng.

    Args:
        xs, ys: per-candidate paired samples (1-D float arrays).
        rng: shared generator; a fixed-seed default is used when None so
            identical calls reproduce identical results.
        active: optional per-candidate eligibility mask. Ineligible
            candidates (and, when None, candidates with fewer than 2 pairs
            or an undefined Pearson correlation — the scalar path's guard)
            get the NaN :class:`BootstrapResult`.
        round_replicates, max_replicates: as in :func:`pm1_interval_page`.
    """
    count = len(xs)
    if len(ys) != count:
        raise ValueError(f"{count} x samples but {len(ys)} y samples")
    if active is None:
        active = [
            xs[i].shape[0] >= 2 and not math.isnan(pearson(xs[i], ys[i]))
            for i in range(count)
        ]
    elif len(active) != count:
        raise ValueError(f"{count} samples but {len(active)} active flags")
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(
        np.asarray([x.shape[0] for x in xs], dtype=np.int64), out=indptr[1:]
    )
    empty = [np.empty(0, dtype=np.float64)]
    estimate, low, high, replicates = pm1_interval_page(
        np.concatenate(empty + [np.asarray(x, dtype=np.float64) for x in xs]),
        np.concatenate(empty + [np.asarray(y, dtype=np.float64) for y in ys]),
        indptr,
        active,
        rng,
        round_replicates=round_replicates,
        max_replicates=max_replicates,
    )
    return [
        BootstrapResult(math.nan, math.nan, math.nan, b)
        if math.isnan(est)
        else BootstrapResult(est, lo, hi, b)
        for est, lo, hi, b in zip(
            estimate.tolist(), low.tolist(), high.tolist(), replicates.tolist()
        )
    ]


# -- the whole query ------------------------------------------------------------


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
        hits = index_of(catalog).top_overlap(
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
    ranked = rank_records(
        ids, stats, scorer, true_correlations=truths, rng=rng, k=k
    )
    return QueryResult(
        ranked=ranked,
        candidates_considered=len(hits),
        retrieval_seconds=0.0,
        rerank_seconds=0.0,
    )
