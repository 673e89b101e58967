"""End-to-end observability: tracing, /metrics, slow-query log.

The contract under test, layer by layer:

* **Bit-parity** — tracing reads only the monotonic clock, never a
  query's rng stream, so results are bit-identical with observability
  on or off across every backend × scorer × rng-mode combination.
* **Accounting** — a served query's trace accounts for ≥95% of its
  wall time; per-shard children live under the scatter phases and name
  slow / timed-out / failed shards.
* **Serving surfaces** — ``GET /metrics`` is valid Prometheus text
  carrying request counts, phase-latency histograms, coalescer batch
  sizes and per-shard error counters; ``/healthz`` is the versioned v2
  payload; the slow-query log fires exactly for threshold-breaching
  queries and identifies the slow shard under fault injection.
"""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.index.engine import QueryResult
from repro.index.options import QueryOptions
from repro.obs import (
    MetricsRegistry,
    Trace,
    parse_prometheus_text,
    set_registry,
)
from repro.serving import (
    QueryService,
    QuerySession,
    ShardedCatalog,
)
from repro.serving.coalescer import QueryCoalescer
from repro.serving.faults import injected

from scalar_query_oracle import assert_results_match, scalar_query

N_SKETCHES = 24
SKETCH_SIZE = 64
ROWS = 200
UNIVERSE = 1200

#: QueryResult fields whose values are wall-clock measurements; every
#: other field is part of the bit-parity surface.
TIMING_FIELDS = {"retrieval_seconds", "rerank_seconds", "trace"}


def deterministic(result: QueryResult) -> str:
    return json.dumps(
        {
            key: value
            for key, value in result.to_dict().items()
            if key not in TIMING_FIELDS
        },
        sort_keys=True,
    )


def top_spans(block: dict) -> list[dict]:
    return [s for s in block["spans"] if "parent" not in s]


def child_spans(block: dict) -> list[dict]:
    return [s for s in block["spans"] if "parent" in s]


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(23)
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


def _service_payload(rng_seed=5, rows=150):
    rng = np.random.default_rng(rng_seed)
    return {
        "keys": [int(k) for k in rng.choice(UNIVERSE, rows, replace=False)],
        "values": [float(v) for v in rng.standard_normal(rows)],
    }


# -- bit-parity: observability cannot perturb results -------------------------


class TestBitParity:
    @pytest.mark.parametrize("scorer", ["rp_cih", "rb_cib"])
    @pytest.mark.parametrize("rng_mode", ["batched", "compat"])
    @pytest.mark.parametrize(
        "backend", ["engine", "engine-scalar", "router"]
    )
    def test_traced_equals_untraced(self, corpus, backend, rng_mode, scorer):
        mono, sharded, queries = corpus
        options = QueryOptions(
            k=6, depth=12, scorer=scorer, rng_mode=rng_mode
        )
        if backend == "engine-scalar":
            # The row-at-a-time reference has no tracing to switch off:
            # the traced pipeline must answer as the reference does, to
            # the parity suite's tolerances (test_index_engine_parity).
            with QuerySession.for_catalog(mono, options) as session:
                traced = session.submit(queries, trace=True)
            for query, t in zip(queries, traced):
                want = scalar_query(
                    mono, query, k=options.k, scorer=scorer, options=options
                )
                assert t.trace is not None
                assert_results_match(want, t, scorer)
            return
        if backend == "engine":
            session = QuerySession.for_catalog(mono, options)
        else:
            session = QuerySession.for_sharded(sharded, options)
        with session:
            plain = session.submit(queries)
            traced = session.submit(queries, trace=True)
        for p, t in zip(plain, traced):
            assert p.trace is None
            assert t.trace is not None
            assert deterministic(p) == deterministic(t)

    def test_untraced_wire_dict_has_no_trace_key(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=4, depth=12))
        result = session.submit_one(queries[0])
        assert "trace" not in result.to_dict()
        round_trip = QueryResult.from_dict(result.to_dict())
        assert round_trip.trace is None

    def test_trace_ids_are_unique_per_query(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=4, depth=12))
        results = session.submit(queries, trace=True)
        ids = {r.trace["trace_id"] for r in results}
        assert len(ids) == len(queries)


# -- trace structure and wall-time accounting ---------------------------------


class TestTraceAccounting:
    def test_engine_phases_partition_wall_time(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=6, depth=12))
        start = time.perf_counter()
        result = session.submit_one(queries[0], trace=True)
        wall_ms = (time.perf_counter() - start) * 1000.0
        names = [s["name"] for s in top_spans(result.trace)]
        assert names == ["retrieval", "assemble", "score", "merge"]
        covered = sum(s["duration_ms"] for s in top_spans(result.trace))
        assert covered <= wall_ms * 1.001
        # Spans tile the execution contiguously (no gaps, no overlap).
        spans = top_spans(result.trace)
        for left, right in zip(spans, spans[1:]):
            assert right["start_ms"] == pytest.approx(
                left["start_ms"] + left["duration_ms"], abs=0.5
            )

    def test_served_query_trace_covers_95_percent_of_wall(self, corpus):
        """Acceptance: the trace block of a query served through the
        full service path accounts for ≥95% of its wall time."""
        mono, _, _ = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=6, depth=12))
        service = QueryService(session)
        try:
            coverages = []
            for attempt in range(5):
                payload = {**_service_payload(attempt), "trace": True}
                start = time.perf_counter()
                body = service.handle_query(payload)
                wall_ms = (time.perf_counter() - start) * 1000.0
                covered = sum(
                    s["duration_ms"] for s in top_spans(body["trace"])
                )
                coverages.append(covered / wall_ms)
            assert max(coverages) >= 0.95, coverages
        finally:
            service.stop()

    def test_shared_batch_spans_are_marked(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=6, depth=12))
        results = session.submit(queries, trace=True)
        for result in results:
            by_name = {s["name"]: s for s in top_spans(result.trace)}
            for shared_phase in ("retrieval", "score"):
                meta = by_name[shared_phase].get("meta", {})
                assert meta.get("shared") is True
                assert meta.get("batch_size") == len(queries)
            for per_query_phase in ("assemble", "merge"):
                assert "meta" not in by_name[per_query_phase] or (
                    not by_name[per_query_phase]["meta"].get("shared")
                )
        # The shared spans are the *same* interval in every trace.
        shared = {
            (s["name"], s["start_ms"], s["duration_ms"])
            for result in results
            for s in top_spans(result.trace)
            if s.get("meta", {}).get("shared")
        }
        assert len(shared) == 2


# -- per-shard children -------------------------------------------------------


class TestShardChildSpans:
    def test_every_shard_probed_gets_a_child(self, corpus):
        """One ``shard_probe`` child per shard, all under ``retrieval``
        (the one phase that touches shards one by one); ``assemble``
        runs once over the whole page and has none."""
        _, sharded, queries = corpus
        session = QuerySession.for_sharded(
            sharded, QueryOptions(k=6, depth=12)
        )
        result = session.submit_one(queries[0], trace=True)
        children = child_spans(result.trace)
        assert sorted(c["meta"]["shard"] for c in children) == [0, 1, 2]
        for child in children:
            assert child["name"] == "shard_probe"
            assert child["parent"] == "retrieval"
            assert child["meta"]["status"] == "ok"
        assert not [c for c in children if c["parent"] == "assemble"]

    def test_delayed_shard_child_shows_the_delay(self, corpus):
        _, sharded, queries = corpus
        session = QuerySession.for_sharded(
            sharded, QueryOptions(k=6, depth=12)
        )
        with injected(
            {"shard_probe": {"shard": 1, "kind": "delay", "ms": 40}}
        ):
            result = session.submit_one(queries[0], trace=True)
        probe = {
            c["meta"]["shard"]: c
            for c in child_spans(result.trace)
            if c["name"] == "shard_probe"
        }
        assert probe[1]["duration_ms"] >= 40.0
        assert probe[1]["duration_ms"] > probe[0]["duration_ms"]
        assert probe[1]["duration_ms"] > probe[2]["duration_ms"]

    def test_failed_shard_child_is_marked_error(self, corpus):
        _, sharded, queries = corpus
        session = QuerySession.for_sharded(
            sharded, QueryOptions(k=6, depth=12, on_shard_error="partial")
        )
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            with injected(
                {"shard_probe": {"shard": 2, "kind": "exception"}}
            ):
                result = session.submit_one(queries[0], trace=True)
        finally:
            set_registry(None)
        assert result.degraded
        probe = {
            c["meta"]["shard"]: c
            for c in child_spans(result.trace)
            if c["name"] == "shard_probe"
        }
        assert probe[2]["meta"]["status"] == "error"
        assert probe[0]["meta"]["status"] == "ok"
        assert probe[1]["meta"]["status"] == "ok"
        # The per-shard error counter names the failed shard.
        assert (
            registry.counter_value("repro_shard_errors_total", shard="2")
            == 1.0
        )
        assert (
            registry.counter_value("repro_shard_errors_total", shard="0")
            == 0.0
        )


# -- session-level metrics and queue wait -------------------------------------


class TestSessionMetrics:
    def test_traced_submit_records_per_query_metrics(self, corpus):
        mono, _, queries = corpus
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            session = QuerySession.for_catalog(
                mono, QueryOptions(k=6, depth=12)
            )
            session.submit(queries, trace=True)
        finally:
            set_registry(None)
        assert registry.counter_value("repro_queries_total") == len(queries)
        snapshot = registry.snapshot()["histograms"]
        assert snapshot["repro_query_seconds"]["count"] == len(queries)
        for phase in ("retrieval", "assemble", "score", "merge"):
            name = f'repro_phase_seconds{{phase="{phase}"}}'
            assert snapshot[name]["count"] == len(queries)

    def test_untraced_submit_records_nothing(self, corpus):
        mono, _, queries = corpus
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            session = QuerySession.for_catalog(
                mono, QueryOptions(k=6, depth=12)
            )
            session.submit(queries)
        finally:
            set_registry(None)
        assert registry.counter_value("repro_queries_total") == 0.0
        assert registry.snapshot()["histograms"] == {}

    def test_coalescer_window_records_queue_wait(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=6, depth=12))
        with QueryCoalescer(session, max_wait_ms=25.0) as coalescer:
            result = coalescer.submit(queries[0], trace=True)
        waits = [
            s for s in result.trace["spans"] if s["name"] == "queue_wait"
        ]
        assert len(waits) == 1
        assert waits[0]["duration_ms"] >= 20.0
        assert waits[0]["start_ms"] == pytest.approx(
            -waits[0]["duration_ms"]
        )

    def test_coalesced_window_mates_all_get_traces(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=6, depth=12))
        results: dict[int, QueryResult] = {}
        with QueryCoalescer(session, max_wait_ms=40.0) as coalescer:

            def submit(i):
                results[i] = coalescer.submit(
                    queries[i % len(queries)], trace=True
                )

            threads = [
                threading.Thread(target=submit, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(results) == 4
        for result in results.values():
            assert result.trace is not None
            assert any(
                s["name"] == "queue_wait" for s in result.trace["spans"]
            )


# -- HTTP surfaces ------------------------------------------------------------


class TestHttpSurfaces:
    def test_metrics_endpoint_is_valid_prometheus(self, corpus):
        mono, _, _ = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=6, depth=12))
        with QueryService(session) as service:
            body = json.dumps(_service_payload()).encode()
            request = urllib.request.Request(
                service.url + "/query",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            urllib.request.urlopen(request).read()
            with urllib.request.urlopen(
                service.url + "/metrics"
            ) as response:
                content_type = response.headers["Content-Type"]
                text = response.read().decode()
        assert content_type.startswith("text/plain")
        families = parse_prometheus_text(text)  # raises if malformed
        for family in (
            "repro_http_requests_total",
            "repro_queries_total",
            "repro_query_seconds",
            "repro_phase_seconds",
            "repro_coalescer_batch_size",
            "repro_shard_errors_total",
        ):
            assert family in families, sorted(families)
        http = {
            (labels.get("endpoint"), labels.get("status")): value
            for suffix, labels, value in families[
                "repro_http_requests_total"
            ]["samples"]
        }
        assert http[("/query", "200")] == 1.0
        batch = families["repro_coalescer_batch_size"]
        assert any(suffix == "_count" for suffix, _, _ in batch["samples"])
        phases = {
            labels.get("phase")
            for _, labels, _ in families["repro_phase_seconds"]["samples"]
        }
        assert {"retrieval", "merge", "wire_encode"} <= phases

    def test_healthz_v2_payload(self, corpus):
        mono, _, _ = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=6, depth=12))
        with QueryService(session) as service:
            with urllib.request.urlopen(
                service.url + "/healthz"
            ) as response:
                health = json.loads(response.read())
        assert health["status"] == "ok"
        assert health["version"]
        assert health["uptime_seconds"] >= 0.0
        assert set(health["coalescer"]) == {
            "submitted",
            "fast_path",
            "batches",
            "coalesced",
            "largest_batch",
        }
        assert health["shards"] == {"count": 1, "errors": 0}
        assert "workers" not in health

    def test_response_has_no_trace_unless_requested(self, corpus):
        mono, _, _ = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=6, depth=12))
        with QueryService(session) as service:

            def post(payload):
                request = urllib.request.Request(
                    service.url + "/query",
                    data=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"},
                )
                return json.loads(urllib.request.urlopen(request).read())

            plain = post(_service_payload())
            traced = post({**_service_payload(), "trace": True})
        assert "trace" not in plain
        assert "trace" in traced
        names = [s["name"] for s in top_spans(traced["trace"])]
        assert names[0] == "sketch"
        assert "queue_wait" in names
        assert names[-1] == "wire_encode"

    def test_stats_verb_renders_live_service(self, corpus, capsys):
        mono, _, _ = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=6, depth=12))
        with QueryService(session) as service:
            for seed in range(3):
                request = urllib.request.Request(
                    service.url + "/query",
                    data=json.dumps(_service_payload(seed)).encode(),
                    headers={"Content-Type": "application/json"},
                )
                urllib.request.urlopen(request).read()
            capsys.readouterr()
            assert main(["stats", service.url]) == 0
            out = capsys.readouterr().out
        assert "status     : ok" in out
        assert "queries    : 3 served" in out
        assert "latency    : p50" in out
        assert "phase      : retrieval" in out

    def test_stats_verb_fails_cleanly_when_unreachable(self, capsys):
        rc = main(["stats", "http://127.0.0.1:1", "--timeout", "0.5"])
        assert rc == 2
        assert "cannot fetch" in capsys.readouterr().err


# -- slow-query log -----------------------------------------------------------


class TestSlowQueryLog:
    def test_fault_free_queries_are_not_logged(self, corpus, tmp_path):
        mono, _, _ = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=6, depth=12))
        sink = tmp_path / "slow.jsonl"
        service = QueryService(
            session, slow_query_ms=5_000.0, slow_query_log=sink
        )
        try:
            for seed in range(3):
                service.handle_query(_service_payload(seed))
        finally:
            service.stop()
        assert not sink.exists()

    def test_delayed_shard_is_logged_and_identified(self, corpus, tmp_path):
        """The ISSUE's canonical regression: delay one shard past the
        threshold → exactly that query is logged, naming the shard."""
        _, sharded, _ = corpus
        session = QuerySession.for_sharded(
            sharded, QueryOptions(k=6, depth=12)
        )
        sink = tmp_path / "slow.jsonl"
        service = QueryService(
            session, slow_query_ms=30.0, slow_query_log=sink
        )
        try:
            service.handle_query(_service_payload(0))  # fast, unlogged
            with injected(
                {"shard_probe": {"shard": 1, "kind": "delay", "ms": 80}}
            ):
                slow_body = service.handle_query(
                    {**_service_payload(1), "trace": True}
                )
            service.handle_query(_service_payload(2))  # fast, unlogged
        finally:
            service.stop()
        records = [
            json.loads(line)
            for line in sink.read_text().splitlines()
            if line
        ]
        assert len(records) == 1
        (record,) = records
        assert record["event"] == "slow_query"
        assert record["trace_id"] == slow_body["trace"]["trace_id"]
        assert record["total_ms"] >= 80.0
        assert record["threshold_ms"] == 30.0
        assert record["slowest_shard"]["shard"] == 1
        assert record["slowest_shard"]["phase"] == "retrieval"
        assert record["failed_shards"] == []
        assert record["phases"]["retrieval"] >= 80.0
