"""Router parity: sharded serving vs the monolithic engine.

The subsystem's core guarantee — :class:`repro.serving.ShardRouter`
results are bit-identical (ids, scores, order) to a single-catalog
:class:`~repro.index.engine.JoinCorrelationEngine` holding the union of
the shards — pinned for every scorer, both rng modes, both retrieval
backends and shard counts {1, 2, 7}, for ``query`` and ``query_batch``.
"""

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.index.engine import (
    CandidatePage,
    JoinCorrelationEngine,
    retrieve_candidates,
)
from repro.obs import Trace
from repro.ranking.scoring import RNG_MODES, SCORER_NAMES
from repro.serving import (
    QuerySession,
    ShardRouter,
    ShardedCatalog,
)
from scatter_router_oracle import ScatterRouterOracle

SHARD_COUNTS = (1, 2, 7)
#: rows=1 keeps LSH collision probability high on this moderately
#: overlapping corpus, so the approximate backend retrieves non-trivial
#: candidate pages for the parity comparison.
LSH = {"lsh_bands": 32, "lsh_rows": 1}

N_SKETCHES = 36
SKETCH_SIZE = 64
ROWS = 250
UNIVERSE = 1500


def _sketch(rng, hasher, name, n_rows=ROWS):
    keys = rng.choice(UNIVERSE, n_rows, replace=False)
    return CorrelationSketch.from_columns(
        keys,
        rng.standard_normal(n_rows),
        SKETCH_SIZE,
        hasher=hasher,
        name=name,
    )


@pytest.fixture(scope="module")
def corpus():
    """One monolithic catalog, the same corpus sharded 1/2/7 ways, and
    query sketches (one of them also part of the corpus, for exclude)."""
    rng = np.random.default_rng(11)
    hasher = KeyHasher()
    pairs = [
        (f"pair{i:03d}", _sketch(rng, hasher, f"pair{i:03d}"))
        for i in range(N_SKETCHES)
    ]
    mono = SketchCatalog(sketch_size=SKETCH_SIZE, hasher=hasher)
    mono.add_sketches(pairs)
    sharded = {}
    for count in SHARD_COUNTS:
        catalog = ShardedCatalog(count, sketch_size=SKETCH_SIZE, hasher=hasher)
        catalog.add_sketches(pairs)
        sharded[count] = catalog
    queries = [_sketch(rng, hasher, f"query{j}", n_rows=400) for j in range(3)]
    return mono, sharded, queries, pairs[0][0]


def _key(result):
    """Everything bit-parity covers: ids, exact scores, order, counts."""
    return (
        [(e.candidate_id, e.score, e.stats.sample_size) for e in result.ranked],
        result.candidates_considered,
    )


def _engine(mono, backend, rng_mode="batched", depth=10):
    return JoinCorrelationEngine(
        mono,
        retrieval_depth=depth,
        rng_mode=rng_mode,
        retrieval_backend=backend,
        lsh_bands=LSH["lsh_bands"],
        lsh_rows=LSH["lsh_rows"],
    )


def _router(sharded, backend, rng_mode="batched", depth=10):
    return ShardRouter(
        sharded,
        retrieval_depth=depth,
        rng_mode=rng_mode,
        retrieval_backend=backend,
        lsh_bands=LSH["lsh_bands"],
        lsh_rows=LSH["lsh_rows"],
    )


@pytest.mark.parametrize("backend", ("inverted", "lsh"))
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("scorer", SCORER_NAMES)
def test_query_and_batch_parity(corpus, scorer, n_shards, backend):
    """The acceptance matrix: every scorer x backend x shard count."""
    mono, sharded, queries, corpus_id = corpus
    engine = _engine(mono, backend)
    router = _router(sharded[n_shards], backend)

    for query in queries[:2]:
        expected = _key(engine.query(query, k=8, scorer=scorer))
        got = router.query(query, k=8, scorer=scorer)
        assert _key(got) == expected
        assert got.shards_probed == n_shards

    expected_batch = [
        _key(r) for r in engine.query_batch(queries, k=8, scorer=scorer)
    ]
    got_batch = router.query_batch(queries, k=8, scorer=scorer)
    assert [_key(r) for r in got_batch] == expected_batch


def _trace_shape(block):
    """A trace's top-level phases: span names with their meta keys."""
    return [
        (span["name"], sorted(span.get("meta", {})))
        for span in block["spans"]
        if "parent" not in span
    ]


@pytest.mark.parametrize("n_shards", (None, 1, 3))
def test_query_is_a_batch_of_one(corpus, n_shards):
    """One pipeline: ``query`` and a ``query_batch`` of one are the same
    call — ranking, scores, ``candidates_considered`` and the trace's
    top-level spans, names and meta keys — on the monolithic engine
    (``None``) and on a 1- and a 3-shard router."""
    mono, _, queries, _ = corpus
    if n_shards is None:
        backend = _engine(mono, "inverted")
    else:
        catalog = ShardedCatalog(
            n_shards, sketch_size=SKETCH_SIZE, hasher=mono.hasher
        )
        catalog.add_sketches([(sid, mono.get(sid)) for sid in mono])
        backend = _router(catalog, "inverted")
    single = backend.query(queries[0], k=8, trace=Trace())
    (batched,) = backend.query_batch([queries[0]], k=8, traces=[Trace()])
    assert _key(single) == _key(batched)
    assert _trace_shape(single.trace) == _trace_shape(batched.trace)
    assert [name for name, _ in _trace_shape(single.trace)] == [
        "retrieval", "assemble", "score", "merge",
    ]


def test_direct_engine_trace_has_the_served_phases(corpus):
    """What ``engine.query(trace=...)`` records is what a query served
    through ``QuerySession`` records: there is no second single-query
    path whose phases could differ."""
    mono, _, queries, _ = corpus
    engine = _engine(mono, "inverted")
    direct = engine.query(queries[0], k=8, trace=Trace())
    served = QuerySession(engine).submit_one(queries[0], trace=True)
    assert _trace_shape(direct.trace) == _trace_shape(served.trace)


@pytest.mark.parametrize("backend", ("inverted", "lsh"))
@pytest.mark.parametrize("rng_mode", RNG_MODES)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_bootstrap_rng_mode_parity(corpus, n_shards, rng_mode, backend):
    """rb_cib consumes rng per candidate page; both disciplines must
    survive the scatter-gather merge bit for bit."""
    mono, sharded, queries, _ = corpus
    engine = _engine(mono, backend, rng_mode=rng_mode)
    router = _router(sharded[n_shards], backend, rng_mode=rng_mode)
    expected = _key(engine.query(queries[0], k=8, scorer="rb_cib"))
    assert _key(router.query(queries[0], k=8, scorer="rb_cib")) == expected
    expected_batch = [
        _key(r) for r in engine.query_batch(queries, k=5, scorer="rb_cib")
    ]
    got_batch = router.query_batch(queries, k=5, scorer="rb_cib")
    assert [_key(r) for r in got_batch] == expected_batch


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_shared_rng_stream_parity(corpus, n_shards):
    """A caller-supplied generator is consumed in query order, exactly
    like the monolithic batch (the rng-stream half of the contract)."""
    mono, sharded, queries, _ = corpus
    expected = [
        _key(r)
        for r in _engine(mono, "inverted").query_batch(
            queries, k=8, scorer="random", rng=np.random.default_rng(123)
        )
    ]
    got = _router(sharded[n_shards], "inverted").query_batch(
        queries, k=8, scorer="random", rng=np.random.default_rng(123)
    )
    assert [_key(r) for r in got] == expected


def _assert_pages_equal(got: CandidatePage, want: CandidatePage):
    assert got.ids == want.ids
    for name in ("overlaps", "k_len", "kth", "k_inter", "exact"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
    for name in ("key_hashes", "x", "y", "indptr", "x_ranges", "y_ranges"):
        a, b = getattr(got.samples, name), getattr(want.samples, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_merged_shard_sub_pages_equal_the_monolithic_page(corpus, n_shards):
    """Shard-local sub-pages (the oracle's kernel), merged with the
    page-level concat/take, are the monolithic page array for array —
    and so is the router's one assembly over the sharded catalog, which
    reads each candidate from its owning shard."""
    mono, sharded, queries, _ = corpus
    catalog = sharded[n_shards]
    cols = [query.columnar() for query in queries]
    hits = [retrieve_candidates(mono, c, depth=20) for c in cols]

    merged = ScatterRouterOracle(catalog, retrieval_depth=20)._assemble(
        cols, hits
    )
    direct = _router(catalog, "inverted", depth=20)._assemble(
        cols, hits, None, 0.0
    )
    for pages in (merged, direct):
        for page, c, page_hits in zip(pages, cols, hits):
            assert list(zip(page.ids, page.overlaps.tolist())) == page_hits
            _assert_pages_equal(
                page, CandidatePage.assemble(mono, c, page_hits)
            )


@pytest.mark.parametrize("n_shards", (2, 7))
def test_depth_truncation_merges_exactly(corpus, n_shards):
    """retrieval_depth far below the joinable-candidate count: the
    merged global cutoff must equal the monolithic probe's cutoff
    (candidates each shard retrieved but the global top-depth excludes
    must not leak into scoring)."""
    mono, sharded, queries, _ = corpus
    for depth in (1, 3, 5):
        engine = _engine(mono, "inverted", depth=depth)
        router = _router(sharded[n_shards], "inverted", depth=depth)
        for query in queries:
            expected = engine.query(query, k=depth, scorer="rp_cih")
            got = router.query(query, k=depth, scorer="rp_cih")
            assert _key(got) == _key(expected)
            assert got.candidates_considered <= depth


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_exclude_id_parity(corpus, n_shards):
    """Excluding a corpus sketch works whichever shard owns it."""
    mono, sharded, _, corpus_id = corpus
    query = mono.get(corpus_id)
    expected = _engine(mono, "inverted").query(
        query, k=8, scorer="rp", exclude_id=corpus_id
    )
    got = _router(sharded[n_shards], "inverted").query(
        query, k=8, scorer="rp", exclude_id=corpus_id
    )
    assert _key(got) == _key(expected)
    assert corpus_id not in [e.candidate_id for e in got.ranked]


def test_true_correlations_carried_through(corpus):
    mono, sharded, queries, _ = corpus
    truths = {f"pair{i:03d}": 0.5 for i in range(N_SKETCHES)}
    expected = _engine(mono, "inverted").query(
        queries[0], k=5, scorer="jc", true_correlations=truths
    )
    got = _router(sharded[2], "inverted").query(
        queries[0], k=5, scorer="jc", true_correlations=truths
    )
    assert [e.true_correlation for e in got.ranked] == [
        e.true_correlation for e in expected.ranked
    ]


def test_router_query_batch_empty(corpus):
    _, sharded, _, _ = corpus
    assert _router(sharded[2], "inverted").query_batch([]) == []


def test_router_rejects_mismatched_batch_inputs(corpus):
    _, sharded, queries, _ = corpus
    router = _router(sharded[2], "inverted")
    with pytest.raises(ValueError, match="exclude"):
        router.query_batch(queries, exclude_ids=[None])


def test_router_rejects_alien_scheme(corpus):
    _, sharded, _, _ = corpus
    alien = CorrelationSketch(SKETCH_SIZE, hasher=KeyHasher(seed=99))
    with pytest.raises(ValueError, match="scheme"):
        _router(sharded[2], "inverted").query(alien)


def test_constructor_validation(corpus):
    """Shard/depth/banding arguments reject <= 0 with clear messages in
    the router constructor; the router has no worker-pool argument."""
    _, sharded, _, _ = corpus
    catalog = sharded[2]
    with pytest.raises(ValueError, match="retrieval_depth must be positive"):
        ShardRouter(catalog, retrieval_depth=0)
    with pytest.raises(ValueError, match="k must be positive"):
        ShardRouter(catalog).query(CorrelationSketch(8, hasher=catalog.hasher), k=0)
    with pytest.raises(ValueError, match="rng_mode"):
        ShardRouter(catalog, rng_mode="magic")
    with pytest.raises(ValueError, match="retrieval_backend"):
        ShardRouter(catalog, retrieval_backend="magic")
    with pytest.raises(ValueError, match="lsh_bands must be positive"):
        ShardRouter(catalog, lsh_bands=0)
    with pytest.raises(ValueError, match="lsh_rows must be positive"):
        ShardRouter(catalog, lsh_rows=-1)
    with pytest.raises(TypeError, match="workers"):
        ShardRouter(catalog, workers=2)
    with pytest.raises(ValueError, match="n_shards must be positive"):
        ShardedCatalog(0)
