"""QueryCoalescer: micro-batching that is invisible in the results.

The load-bearing claim is bit-parity — a query answered from a
coalesced window returns exactly what per-request execution would have
returned, across every scorer, rng mode, and retrieval backend. The
rest pins the window mechanics: flush on size, on time, on shutdown
(drain, never drop), the idle fast path, and error propagation to the
one caller whose request failed.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.index.options import QueryOptions
from repro.ranking.scoring import RNG_MODES, SCORER_NAMES
from repro.serving import QueryCoalescer, QuerySession, ShardedCatalog

N_SKETCHES = 24
SKETCH_SIZE = 64
ROWS = 160
UNIVERSE = 900
N_QUERIES = 4


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
    sharded = ShardedCatalog(2, sketch_size=SKETCH_SIZE, hasher=hasher)
    sharded.add_sketches(pairs)
    queries = []
    for j in range(N_QUERIES):
        keys = rng.choice(UNIVERSE, 240, replace=False)
        queries.append(
            CorrelationSketch.from_columns(
                keys,
                rng.standard_normal(240),
                SKETCH_SIZE,
                hasher=hasher,
                name=f"query{j}",
            )
        )
    return mono, sharded, queries


def _wire(result):
    """Parity surface: the full wire dict minus wall-clock timings."""
    payload = result.to_dict()
    return {k: v for k, v in payload.items() if not k.endswith("_seconds")}


def _submit_all(coalescer, queries, **kwargs):
    """Submit every query from its own thread; return results in order."""
    results = [None] * len(queries)
    errors = []

    def work(i):
        try:
            results[i] = coalescer.submit(queries[i], **kwargs)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(i,)) for i in range(len(queries))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return results


# -- window mechanics ---------------------------------------------------------


class TestWindowMechanics:
    def test_idle_fast_path(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=5))
        with QueryCoalescer(session) as coalescer:
            result = coalescer.submit(queries[0])
            assert _wire(result) == _wire(session.submit_one(queries[0]))
            assert coalescer.stats["fast_path"] == 1
            assert coalescer.stats["submitted"] == 1
            assert coalescer.stats["batches"] == 0

    def test_size_flush(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=5))
        # A 10s window that can only flush by filling up.
        with QueryCoalescer(
            session, max_batch=3, max_wait_ms=10_000.0
        ) as coalescer:
            start = time.perf_counter()
            results = _submit_all(coalescer, queries[:3])
            elapsed = time.perf_counter() - start
            assert elapsed < 5.0  # flushed on size, not on the 10s timer
            assert coalescer.stats["largest_batch"] == 3
            assert coalescer.stats["coalesced"] == 3
        for query, result in zip(queries[:3], results):
            assert _wire(result) == _wire(session.submit_one(query))

    def test_arrivals_during_an_execution_flush_as_one_window(self, corpus):
        """With ``max_wait_ms=0`` a window only forms behind an execution
        in flight: a session held on an Event keeps the first request
        running while two more arrive, and those two flush together."""
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=5))
        gate, entered = threading.Event(), threading.Event()
        batch_sizes = []

        class HeldSession:
            options, catalog = session.options, session.catalog

            def submit(self, sketches, **kwargs):
                batch_sizes.append(len(sketches))
                entered.set()
                assert gate.wait(timeout=10.0)
                return session.submit(sketches, **kwargs)

        with QueryCoalescer(HeldSession()) as coalescer:
            results = [None] * 3
            threads = [
                threading.Thread(
                    target=lambda i=i: results.__setitem__(
                        i, coalescer.submit(queries[i])
                    )
                )
                for i in range(3)
            ]
            threads[0].start()
            assert entered.wait(timeout=10.0)  # the first request holds
            for t in threads[1:]:
                t.start()
            deadline = time.perf_counter() + 5.0
            while coalescer.stats["submitted"] < 3:
                assert time.perf_counter() < deadline
                time.sleep(0.005)
            gate.set()
            for t in threads:
                t.join(timeout=10.0)
                assert not t.is_alive()
            stats = coalescer.stats_snapshot()
        assert batch_sizes == [1, 2]
        assert (stats["fast_path"], stats["batches"]) == (1, 1)
        assert (stats["coalesced"], stats["largest_batch"]) == (2, 2)
        for query, result in zip(queries[:3], results):
            assert _wire(result) == _wire(session.submit_one(query))

    def test_time_flush(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=5))
        # A lone request in a 50ms window flushes on the timer.
        with QueryCoalescer(
            session, max_batch=100, max_wait_ms=50.0
        ) as coalescer:
            result = coalescer.submit(queries[0])
            assert coalescer.stats["fast_path"] == 0
            assert coalescer.stats["batches"] == 1
        assert _wire(result) == _wire(session.submit_one(queries[0]))

    def test_shutdown_drains_pending_window(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=5))
        # A window that would stay open for a minute: close() must
        # execute it, not abandon the blocked callers.
        coalescer = QueryCoalescer(session, max_batch=100, max_wait_ms=60_000.0)
        results = [None] * 2
        threads = [
            threading.Thread(
                target=lambda i=i: results.__setitem__(
                    i, coalescer.submit(queries[i])
                )
            )
            for i in range(2)
        ]
        for t in threads:
            t.start()
        deadline = time.perf_counter() + 5.0
        while coalescer.stats["submitted"] < 2:
            assert time.perf_counter() < deadline
            time.sleep(0.005)
        coalescer.close()
        for t in threads:
            t.join(timeout=5.0)
            assert not t.is_alive()
        for query, result in zip(queries[:2], results):
            assert _wire(result) == _wire(session.submit_one(query))

    def test_submit_after_close_raises(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono)
        coalescer = QueryCoalescer(session)
        coalescer.close()
        coalescer.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            coalescer.submit(queries[0])

    def test_rejects_pinned_seed_session(self, corpus):
        mono, _, _ = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(seed=7))
        with pytest.raises(ValueError, match="seed"):
            QueryCoalescer(session)

    def test_window_parameters_validated(self, corpus):
        mono, _, _ = corpus
        session = QuerySession.for_catalog(mono)
        with pytest.raises(ValueError, match="max_batch must be positive"):
            QueryCoalescer(session, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms must be non-negative"):
            QueryCoalescer(session, max_wait_ms=-1.0)


# -- bit-parity ---------------------------------------------------------------


class TestCoalescedParity:
    @pytest.mark.parametrize("rng_mode", RNG_MODES)
    @pytest.mark.parametrize("backend", ["inverted", "lsh"])
    def test_matrix(self, corpus, rng_mode, backend):
        """Coalesced == per-request for every scorer under every
        (rng_mode, retrieval backend) — the service's core guarantee."""
        mono, _, queries = corpus
        options = QueryOptions(
            k=6,
            rng_mode=rng_mode,
            retrieval_backend=backend,
            lsh_bands=32 if backend == "lsh" else None,
            lsh_rows=1 if backend == "lsh" else None,
        )
        session = QuerySession.for_catalog(mono, options)
        reference = QuerySession.for_catalog(mono, options)
        for scorer in SCORER_NAMES:
            with QueryCoalescer(
                session, max_batch=len(queries), max_wait_ms=10_000.0
            ) as coalescer:
                coalesced = _submit_all(coalescer, queries, scorer=scorer)
                assert coalescer.stats["largest_batch"] == len(queries)
            expected = [
                reference.submit_one(
                    q, options=options.merged(scorer=scorer)
                )
                for q in queries
            ]
            assert [_wire(r) for r in coalesced] == [
                _wire(r) for r in expected
            ]

    def test_sharded_backend_parity(self, corpus):
        _, sharded, queries = corpus
        options = QueryOptions(k=6)
        with QuerySession.for_sharded(sharded, options) as session:
            with QueryCoalescer(
                session, max_batch=len(queries), max_wait_ms=10_000.0
            ) as coalescer:
                coalesced = _submit_all(coalescer, queries)
            expected = [session.submit_one(q) for q in queries]
        assert [_wire(r) for r in coalesced] == [_wire(r) for r in expected]

    def test_mixed_k_and_scorer_window(self, corpus):
        """Requests with different per-request knobs share a window but
        execute as per-(k, scorer) sub-batches — each caller gets
        exactly its own configuration's answer."""
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono)
        mixes = [(3, "rp"), (5, "rp_cih"), (3, "rp"), (2, "jc")]
        results = [None] * len(mixes)

        with QueryCoalescer(
            session, max_batch=len(mixes), max_wait_ms=10_000.0
        ) as coalescer:
            def work(i):
                k, scorer = mixes[i]
                results[i] = coalescer.submit(queries[i], k=k, scorer=scorer)

            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(len(mixes))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for (k, scorer), query, result in zip(mixes, queries, results):
            assert len(result.ranked) <= k
            expected = session.submit_one(
                query, options=session.options.merged(k=k, scorer=scorer)
            )
            assert _wire(result) == _wire(expected)

    def test_unknown_scorer_is_rejected_on_the_caller_thread(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono)
        # Fast path: the error surfaces on the caller thread.
        with QueryCoalescer(session) as coalescer:
            with pytest.raises(ValueError, match="unknown scorer"):
                coalescer.submit(queries[0], scorer="bogus")
        # Windowed coalescer: the bogus scorer never enters the window,
        # so the good request waits out ``max_wait_ms`` alone and still
        # succeeds.
        with QueryCoalescer(
            session, max_batch=2, max_wait_ms=50.0
        ) as coalescer:
            outcome = {}

            def good():
                outcome["good"] = coalescer.submit(queries[1])

            def bad():
                try:
                    coalescer.submit(queries[0], scorer="bogus")
                except ValueError as exc:
                    outcome["bad"] = exc

            threads = [
                threading.Thread(target=good),
                threading.Thread(target=bad),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert "unknown scorer" in str(outcome["bad"])
        assert _wire(outcome["good"]) == _wire(session.submit_one(queries[1]))

    def test_foreign_hashing_scheme_fails_only_its_caller(self, corpus):
        """A sketch of another hashing scheme submitted in the same
        window as a good one: only its caller gets the error, and the
        good caller's answer is the per-request one."""
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono)
        rng = np.random.default_rng(5)
        foreign = CorrelationSketch.from_columns(
            rng.choice(UNIVERSE, 240, replace=False),
            rng.standard_normal(240),
            SKETCH_SIZE,
            hasher=KeyHasher(bits=64),
            name="foreign",
        )
        outcome = {}
        start = threading.Barrier(2)
        with QueryCoalescer(
            session, max_batch=2, max_wait_ms=500.0
        ) as coalescer:

            def call(name, sketch):
                start.wait()
                try:
                    outcome[name] = coalescer.submit(sketch)
                except ValueError as exc:
                    outcome[name] = exc

            threads = [
                threading.Thread(target=call, args=("good", queries[1])),
                threading.Thread(target=call, args=("bad", foreign)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        assert isinstance(outcome["bad"], ValueError)
        assert "hashing scheme" in str(outcome["bad"])
        assert not isinstance(outcome["good"], BaseException), outcome["good"]
        assert _wire(outcome["good"]) == _wire(session.submit_one(queries[1]))


# -- flusher survival ---------------------------------------------------------


class TestFlusherSurvival:
    """A bad request (or a coalescer bug) must fail *that* caller; the
    shared flusher thread must keep serving and close() must drain."""

    def test_unhashable_k_fails_fast_without_killing_the_flusher(
        self, corpus
    ):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono)
        with QueryCoalescer(
            session, max_batch=8, max_wait_ms=10.0
        ) as coalescer:
            # JSON-shaped garbage (`{"k": [5]}`): rejected on the
            # caller's thread, never enqueued into a shared window.
            with pytest.raises(TypeError, match="k must be an integer"):
                coalescer.submit(queries[0], k=[5])
            with pytest.raises(TypeError, match="scorer must be a string"):
                coalescer.submit(queries[0], scorer={"rp": 1})
            # The coalescer still works — for this caller and others.
            result = coalescer.submit(queries[1])
            assert _wire(result) == _wire(session.submit_one(queries[1]))
        # close() returned: the flusher drained and exited.

    def test_non_string_exclude_id_rejected(self, corpus):
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono)
        with QueryCoalescer(session) as coalescer:
            with pytest.raises(TypeError, match="exclude_id"):
                coalescer.submit(queries[0], exclude_id=123)

    def test_flusher_survives_unexpected_execute_failure(self, corpus):
        """Even an exception escaping _execute itself (a coalescer bug,
        past all per-request handling) fails the batch's callers instead
        of silently killing the flusher and hanging every later request."""
        mono, _, queries = corpus
        session = QuerySession.for_catalog(mono)
        coalescer = QueryCoalescer(session, max_batch=8, max_wait_ms=10.0)
        real_execute = coalescer._execute

        def broken(batch):
            raise RuntimeError("injected coalescer bug")

        coalescer._execute = broken
        try:
            with pytest.raises(RuntimeError, match="injected"):
                # max_wait_ms > 0 forces the flusher path.
                coalescer.submit(queries[0])
        finally:
            coalescer._execute = real_execute
        # The flusher survived: later requests are still served, and
        # close() still drains rather than deadlocking.
        result = coalescer.submit(queries[1])
        assert _wire(result) == _wire(session.submit_one(queries[1]))
        coalescer.close()


# -- concurrency stress -------------------------------------------------------


def test_concurrent_client_stress(corpus):
    """16 concurrent clients, 32 requests, small adaptive window: every
    response matches per-request execution and every request is
    accounted for in the telemetry."""
    mono, _, queries = corpus
    session = QuerySession.for_catalog(mono, QueryOptions(k=5))
    expected = [_wire(session.submit_one(q)) for q in queries]
    n_requests = 32
    with QueryCoalescer(session, max_batch=8, max_wait_ms=5.0) as coalescer:
        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = [
                pool.submit(coalescer.submit, queries[i % len(queries)])
                for i in range(n_requests)
            ]
            results = [f.result(timeout=60.0) for f in futures]
        stats = dict(coalescer.stats)
    assert stats["submitted"] == n_requests
    assert stats["fast_path"] + stats["coalesced"] <= n_requests
    assert stats["largest_batch"] <= 8
    for i, result in enumerate(results):
        assert _wire(result) == expected[i % len(queries)]
