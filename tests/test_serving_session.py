"""QuerySession: one seam over engine / router / worker-pool backends.

Pins the tentpole contract of the service layer: ``submit`` through a
session is bit-identical to calling the wrapped backend's
``query_batch`` directly with the same options, for every backend
shape; capability mismatches (seed on a pool, shard policy on an engine)
raise instead of silently dropping knobs; and ``QueryResult`` survives
the JSON wire format bit-for-bit (property-tested, NaN included).
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.index.engine import JoinCorrelationEngine, QueryResult
from repro.index.options import QueryOptions
from repro.ranking.ranker import RankedCandidate
from repro.ranking.scoring import CandidateScores, SCORER_NAMES
from repro.serving import (
    QuerySession,
    QueryWorkerPool,
    ShardRouter,
    ShardedCatalog,
)

N_SKETCHES = 24
SKETCH_SIZE = 64
ROWS = 200
UNIVERSE = 1200


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(19)
    hasher = KeyHasher()
    pairs = []
    for i in range(N_SKETCHES):
        keys = rng.choice(UNIVERSE, ROWS, replace=False)
        pairs.append(
            (
                f"pair{i:02d}",
                CorrelationSketch.from_columns(
                    keys,
                    rng.standard_normal(ROWS),
                    SKETCH_SIZE,
                    hasher=hasher,
                    name=f"pair{i:02d}",
                ),
            )
        )
    mono = SketchCatalog(sketch_size=SKETCH_SIZE, hasher=hasher)
    mono.add_sketches(pairs)
    sharded = ShardedCatalog(3, sketch_size=SKETCH_SIZE, hasher=hasher)
    sharded.add_sketches(pairs)
    queries = []
    for j in range(3):
        keys = rng.choice(UNIVERSE, 300, replace=False)
        queries.append(
            CorrelationSketch.from_columns(
                keys,
                rng.standard_normal(300),
                SKETCH_SIZE,
                hasher=hasher,
                name=f"query{j}",
            )
        )
    return mono, sharded, queries


def _key(result):
    """Bit-parity surface: ids, exact scores, order, counts, resilience."""
    return (
        [(e.candidate_id, e.score, e.stats.sample_size) for e in result.ranked],
        result.candidates_considered,
        result.shards_probed,
        result.shards_failed,
        result.degraded,
    )


# -- submit parity, per backend ----------------------------------------------


class TestSubmitParity:
    def test_engine_backend(self, corpus):
        mono, _, queries = corpus
        options = QueryOptions(k=6, scorer="rp_cih", depth=12)
        session = QuerySession.for_catalog(mono, options)
        direct = session.backend.query_batch(
            queries, k=6, scorer="rp_cih", exclude_ids=[None] * len(queries)
        )
        via_session = session.submit(queries)
        assert [_key(r) for r in via_session] == [_key(r) for r in direct]

    def test_router_backend(self, corpus):
        _, sharded, queries = corpus
        options = QueryOptions(k=6, depth=12)
        with QuerySession.for_sharded(sharded, options) as session:
            assert isinstance(session.backend, ShardRouter)
            direct = session.backend.query_batch(queries, k=6)
            assert [_key(r) for r in session.submit(queries)] == [
                _key(r) for r in direct
            ]

    def test_worker_pool_backend(self, corpus):
        _, sharded, queries = corpus
        options = QueryOptions(k=6, depth=12)
        with QuerySession.for_sharded(
            sharded, options, query_workers=2
        ) as session:
            assert isinstance(session.backend, QueryWorkerPool)
            reference = QuerySession.for_sharded(sharded, options)
            assert [_key(r) for r in session.submit(queries)] == [
                _key(r) for r in reference.submit(queries)
            ]

    def test_all_backends_agree(self, corpus):
        mono, sharded, queries = corpus
        options = QueryOptions(k=5, scorer="rp_sez", depth=10)
        engine_results = QuerySession.for_catalog(mono, options).submit(queries)
        with QuerySession.for_sharded(sharded, options) as routed:
            router_results = routed.submit(queries)
        assert [_key(r)[0] for r in engine_results] == [
            _key(r)[0] for r in router_results
        ]

    def test_submit_one_equals_single_query(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=4))
        one = session.submit_one(queries[0], exclude_id="pair00")
        direct = session.backend.query(
            queries[0], k=4, scorer="rp_cih", exclude_id="pair00"
        )
        assert _key(one) == _key(direct)

    def test_per_call_options_override(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=2))
        wide = session.submit_one(
            queries[0], options=session.options.merged(k=8, scorer="rp")
        )
        direct = session.backend.query(queries[0], k=8, scorer="rp")
        assert _key(wide) == _key(direct)


# -- options and capability routing ------------------------------------------


class TestOptionsRouting:
    def test_session_reads_engine_level_fields_from_backend(self, corpus):
        mono, _, _ = corpus
        engine = JoinCorrelationEngine(mono, retrieval_depth=33)
        session = QuerySession(engine, QueryOptions(k=3))
        assert session.options.depth == 33
        assert session.options.k == 3

    def test_explicit_engine_level_conflict_raises(self, corpus):
        """An explicitly divergent engine-level field is a
        misconfiguration the session cannot serve — silently answering
        with the backend's value would mask it."""
        mono, _, _ = corpus
        engine = JoinCorrelationEngine(mono, retrieval_depth=100)
        with pytest.raises(ValueError, match="engine-level"):
            QuerySession(engine, QueryOptions(depth=50))
        with pytest.raises(ValueError, match="retrieval_backend"):
            QuerySession(engine, QueryOptions(retrieval_backend="lsh"))
        # Per-call fields are the caller's to set — no conflict.
        session = QuerySession(engine, QueryOptions(k=3, scorer="rp"))
        assert session.options.k == 3
        assert session.options.depth == 100

    def test_per_call_engine_level_override_raises(self, corpus):
        """A per-call record cannot re-tune the warm backend either:
        answering at the backend's depth (or through its retrieval
        backend) would silently drop the caller's knob. Even a value the
        constructor would read as "unspecified" (the default depth, on a
        session serving another) is a divergent ask here."""
        mono, sharded, queries = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=4, depth=50))
        with pytest.raises(ValueError, match=r"engine-level field\(s\): depth=3"):
            session.submit(queries, options=session.options.merged(depth=3))
        with pytest.raises(ValueError, match="retrieval_backend='lsh'"):
            session.submit_one(
                queries[0],
                options=session.options.merged(retrieval_backend="lsh"),
            )
        with pytest.raises(ValueError, match="depth=100"):
            session.submit(queries, options=QueryOptions(k=4))
        # The per-call fields stay the caller's to vary, call by call.
        with QuerySession.for_sharded(sharded, QueryOptions(depth=50)) as routed:
            result = routed.submit_one(
                queries[0],
                options=routed.options.merged(
                    k=2, scorer="rp", seed=3, on_shard_error="partial",
                ),
            )
        assert len(result.ranked) == 2

    def test_seed_matches_explicit_rng(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(
            mono, QueryOptions(k=5, scorer="rb_cib", seed=123)
        )
        direct = session.backend.query_batch(
            queries, k=5, scorer="rb_cib", rng=np.random.default_rng(123)
        )
        assert [_key(r) for r in session.submit(queries)] == [
            _key(r) for r in direct
        ]

    def test_seed_rejected_on_worker_pool(self, corpus):
        _, sharded, queries = corpus
        with QuerySession.for_sharded(
            sharded, QueryOptions(seed=7), query_workers=2
        ) as session:
            with pytest.raises(ValueError, match="sequential contract"):
                session.submit(queries[:1])

    def test_resilience_rejected_on_engine(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(
            mono, QueryOptions(on_shard_error="partial")
        )
        with pytest.raises(ValueError, match="shard"):
            session.submit(queries[:1])

    def test_resilience_accepted_on_router(self, corpus):
        _, sharded, queries = corpus
        options = QueryOptions(k=4, on_shard_error="partial")
        with QuerySession.for_sharded(sharded, options) as session:
            results = session.submit(queries)
        # No faults installed: identical to the fault-free answer.
        with QuerySession.for_sharded(sharded, QueryOptions(k=4)) as plain:
            assert [_key(r) for r in results] == [
                _key(r) for r in plain.submit(queries)
            ]

    def test_length_mismatch_raises(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono)
        with pytest.raises(ValueError, match="exclude ids"):
            session.submit(queries, exclude_ids=["a"])

    def test_empty_submit(self, corpus):
        mono, _, _ = corpus
        assert QuerySession.for_catalog(mono).submit([]) == []


# -- construction helpers -----------------------------------------------------


class TestConstruction:
    def test_open_monolithic_file(self, corpus, tmp_path):
        mono, _, queries = corpus
        path = tmp_path / "catalog.arena"
        mono.save(path)
        session = QuerySession.open(path, QueryOptions(k=4))
        assert isinstance(session.backend, JoinCorrelationEngine)
        reference = QuerySession.for_catalog(mono, QueryOptions(k=4))
        assert _key(session.submit_one(queries[0])) == _key(
            reference.submit_one(queries[0])
        )

    def test_open_sharded_directory(self, corpus, tmp_path):
        _, sharded, queries = corpus
        directory = tmp_path / "catalog-dir"
        sharded.save(directory)
        with QuerySession.open(directory, QueryOptions(k=4)) as session:
            assert isinstance(session.backend, ShardRouter)
            with QuerySession.for_sharded(sharded, QueryOptions(k=4)) as ref:
                assert _key(session.submit_one(queries[0])) == _key(
                    ref.submit_one(queries[0])
                )

    def test_query_sketch_matches_catalog_config(self, corpus):
        mono, _, _ = corpus
        session = QuerySession.for_catalog(mono)
        rng = np.random.default_rng(5)
        keys = rng.choice(UNIVERSE, 100, replace=False)
        values = rng.standard_normal(100)
        sketch = session.query_sketch(keys, values, name="mine")
        by_hand = CorrelationSketch.from_columns(
            keys, values, SKETCH_SIZE, hasher=mono.hasher, name="mine"
        )
        assert sketch.entries() == by_hand.entries()
        assert sketch.hasher.scheme_id == mono.hasher.scheme_id

    def test_catalog_info(self, corpus):
        mono, sharded, _ = corpus
        info = QuerySession.for_catalog(mono).catalog_info()
        assert info["sketches"] == N_SKETCHES
        assert info["sketch_size"] == SKETCH_SIZE
        assert info["shards"] == 1
        assert info["backend"] == "JoinCorrelationEngine"
        assert info["options"]["k"] == 10
        with QuerySession.for_sharded(sharded) as session:
            routed = session.catalog_info()
        assert routed["shards"] == 3
        assert routed["backend"] == "ShardRouter"
        # The whole summary is strict JSON.
        json.dumps(info)
        json.dumps(routed)

    def test_estimate(self, corpus):
        mono, _, _ = corpus
        session = QuerySession.for_catalog(mono)
        rng = np.random.default_rng(9)
        keys = rng.choice(UNIVERSE, 150, replace=False)
        values = rng.standard_normal(150)
        payload = session.estimate(keys, values, keys, values)
        json.dumps(payload)
        assert payload["correlation"] == pytest.approx(1.0)
        assert payload["sample_size"] > 0
        assert payload["estimator"] == "pearson"
        assert set(payload["hoeffding"]) == {"low", "high"}


# -- QueryResult wire format --------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
maybe_nan = st.one_of(finite, st.just(math.nan))

stats_strategy = st.builds(
    CandidateScores,
    r_pearson=maybe_nan,
    r_bootstrap=maybe_nan,
    sample_size=st.integers(min_value=0, max_value=10_000),
    sez_factor=maybe_nan,
    cib_factor=maybe_nan,
    hfd_ci_length=st.one_of(maybe_nan, st.just(math.inf)),
    containment_est=maybe_nan,
    containment_true=maybe_nan,
)

ranked_strategy = st.builds(
    RankedCandidate,
    candidate_id=st.text(
        alphabet="abcdefgh0123456789_.", min_size=1, max_size=20
    ),
    score=maybe_nan,
    stats=stats_strategy,
    true_correlation=maybe_nan,
)

result_strategy = st.builds(
    QueryResult,
    ranked=st.lists(ranked_strategy, max_size=6),
    candidates_considered=st.integers(min_value=0, max_value=100_000),
    retrieval_seconds=st.floats(min_value=0, max_value=1e6),
    rerank_seconds=st.floats(min_value=0, max_value=1e6),
    shards_probed=st.integers(min_value=1, max_value=64),
    shards_failed=st.integers(min_value=0, max_value=64),
    degraded=st.booleans(),
)


_ALLOCATOR_PROBE = """
import json, resource
import numpy as np
from repro.index.catalog import SketchCatalog
from repro.serving.session import QuerySession, _pin_malloc_thresholds

def faults_per_pass(passes=20):
    def one_pass():  # four touched 1 MiB blocks alive at once, then freed
        return [np.ones(1 << 17) for _ in range(4)]
    one_pass()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(passes):
        one_pass()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / passes

cold = faults_per_pass()
QuerySession.for_catalog(SketchCatalog(sketch_size=8)).warm()
print(json.dumps({"cold": cold, "warm": faults_per_pass(),
                  "pinned": _pin_malloc_thresholds()}))
"""


class TestWarm:
    def test_warm_pins_the_allocator(self):
        """After ``warm()`` a loop that frees what it allocated gets the
        same heap back: no fresh pages per pass. Under glibc's drifting
        thresholds the same loop maps or trims-and-regrows its 4 MiB on
        every pass (1024 page faults) — the history-dependent cost that
        made identical queries 25% slower on some benchmark seeds. Run
        in a fresh interpreter: ``mallopt`` is process-wide."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", _ALLOCATOR_PROBE],
            env=env, capture_output=True, text=True, check=True,
        )
        probe = json.loads(out.stdout)
        if not probe["pinned"]:
            pytest.skip("no glibc mallopt on this platform")
        assert probe["warm"] < 32, probe
        assert probe["cold"] > 512, probe


class TestQueryResultWireFormat:
    @given(result=result_strategy)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_through_json(self, result):
        """to_dict -> json -> from_dict is the identity, bit for bit —
        including NaN (as null), infinities (as string sentinels), and
        the resilience fields. allow_nan=False pins the wire to strict
        JSON: no value may need Python's non-standard literals.
        (Compared through to_dict, where NaN is null — dataclass ``==``
        is NaN-blind by IEEE rules.)"""
        payload = json.loads(json.dumps(result.to_dict(), allow_nan=False))
        rebuilt = QueryResult.from_dict(payload)
        assert rebuilt.to_dict() == result.to_dict()
        assert len(rebuilt.ranked) == len(result.ranked)
        for mine, theirs in zip(rebuilt.ranked, result.ranked):
            assert mine.stats.sample_size == theirs.stats.sample_size
            assert (mine.score == theirs.score) or (
                math.isnan(mine.score) and math.isnan(theirs.score)
            )

    def test_real_result_round_trips(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=8))
        for scorer in SCORER_NAMES:
            result = session.submit_one(
                queries[0], options=session.options.merged(scorer=scorer)
            )
            payload = json.loads(json.dumps(result.to_dict()))
            assert QueryResult.from_dict(payload).to_dict() == result.to_dict()

    def test_degraded_fields_survive(self, corpus):
        mono, _, queries = corpus
        base = QuerySession.for_catalog(mono).submit_one(queries[0])
        degraded = QueryResult(
            ranked=base.ranked,
            candidates_considered=base.candidates_considered,
            retrieval_seconds=base.retrieval_seconds,
            rerank_seconds=base.rerank_seconds,
            shards_probed=4,
            shards_failed=2,
            degraded=True,
        )
        payload = json.loads(json.dumps(degraded.to_dict()))
        rebuilt = QueryResult.from_dict(payload)
        assert rebuilt.shards_probed == 4
        assert rebuilt.shards_failed == 2
        assert rebuilt.degraded is True
