"""Micro-batching front door for concurrent query clients.

The batched query path amortizes the index probe and the scoring pass
across queries (the ``batch_bootstrap`` workload of
``benchmarks/record/`` times it), but a real service receives
*concurrent single queries*, not pre-assembled batches.
:class:`QueryCoalescer` closes that gap: callers block on
:meth:`submit` while a flusher thread collects whatever arrived into a
bounded time/size window and executes it as one
:meth:`QuerySession.submit <repro.serving.session.QuerySession.submit>`
call.

**Bit-parity.** Coalesced responses are bit-identical to per-request
execution because the engine's default rng contract gives *every query
its own* fresh fixed-seed generator under ``seed=None`` — batch
composition is invisible to any query's scores. The coalescer therefore
refuses a session whose options pin a shared ``seed`` (that contract is
sequential; batching arbitrary concurrent arrivals under it would make
responses depend on who else happened to be in the window). Requests
with different per-request ``k``/``scorer`` coalesce in the same window
and are executed as one sub-batch per ``(k, scorer)`` group (the
batched pipeline takes scalar ``k``/``scorer``).

**Window semantics.** A flush happens when the window fills
(``max_batch`` requests), when the oldest pending request has waited
``max_wait_ms``, or at shutdown (close drains every pending request —
nothing is abandoned). With the default ``max_wait_ms=0`` the window is
purely *adaptive*: an idle coalescer executes a lone request immediately
on the caller's thread (no batching latency at low load), and batches
form naturally only while an execution is already in flight — arrivals
queue behind it and flush together the moment the flusher frees up.
A positive ``max_wait_ms`` instead holds the window open to let
companions accumulate, trading per-request latency for larger batches.

**Two closed-loop clients.** Under the adaptive window, two clients that
each send their next request only after their last answer form a window
larger than one only when one request arrives before the flusher takes
the other. While A's request executes, B's waits; when A's finishes the
flusher takes B's alone, since A's next request follows A's answer. So
two connections see windows of one, which is why the record's
``serving.coalescer.batch_size_mean_conn2`` reads 1.0; a window of two
needs two requests pending behind one execution, as with three or more
clients.
"""

from __future__ import annotations

import threading
import time

from repro.index.catalog import check_scheme
from repro.index.engine import QueryResult
from repro.obs import BATCH_SIZE_BUCKETS, get_registry
from repro.serving.session import QuerySession

__all__ = ["QueryCoalescer"]


class _Pending:
    """One caller-visible request parked in the window."""

    __slots__ = (
        "sketch", "k", "scorer", "exclude_id", "trace",
        "arrived", "done", "result", "error",
    )

    def __init__(
        self, sketch, k, scorer, exclude_id, trace, arrived=None
    ) -> None:
        self.sketch = sketch
        self.k = k
        self.scorer = scorer
        self.exclude_id = exclude_id
        self.trace = trace
        self.arrived = (
            time.perf_counter() if arrived is None else arrived
        )
        self.done = threading.Event()
        self.result: QueryResult | None = None
        self.error: BaseException | None = None


class QueryCoalescer:
    """Collect concurrent queries into one batched execution.

    Args:
        session: the warm :class:`QuerySession` that executes windows.
            Its options must leave ``seed=None`` (see module docs).
        max_batch: flush as soon as this many requests are pending.
        max_wait_ms: flush once the oldest pending request has waited
            this long. ``0`` (default) never waits — idle requests
            execute immediately and batches form only under load.
    """

    def __init__(
        self,
        session: QuerySession,
        *,
        max_batch: int = 16,
        max_wait_ms: float = 0.0,
    ) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be non-negative, got {max_wait_ms}"
            )
        if session.options.seed is not None:
            raise ValueError(
                "coalescing requires options.seed=None: a pinned seed "
                "makes responses depend on window composition, breaking "
                "parity with per-request execution"
            )
        self.session = session
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self._cond = threading.Condition()
        self._pending: list[_Pending] = []
        self._busy = False  # an execution (fast-path or flush) in flight
        self._closed = False
        #: Counters — every write holds ``_cond`` so concurrent
        #: read-modify-writes cannot drop increments; telemetry readers
        #: (``/healthz``) read lock-free, which is safe for int values.
        self.stats = {
            "submitted": 0,
            "fast_path": 0,      # lone idle requests run on caller thread
            "batches": 0,        # flusher executions (any size)
            "coalesced": 0,      # requests that shared a window with others
            "largest_batch": 0,
        }
        self._flusher = threading.Thread(
            target=self._run, name="query-coalescer", daemon=True
        )
        self._flusher.start()

    # -- caller side ---------------------------------------------------------

    def submit(
        self,
        sketch,
        *,
        k: int | None = None,
        scorer: str | None = None,
        exclude_id: str | None = None,
        trace: bool = False,
        arrived: float | None = None,
    ) -> QueryResult:
        """Evaluate one query, blocking until its window executes.

        ``k``/``scorer`` default to the session's options; other knobs
        (depth, backend, resilience policy) are session-wide by design —
        they describe the warm index, not one request. ``trace`` asks
        for the result's phase-span block; traced and untraced requests
        execute in separate sub-batches (the flag is part of the group
        key) but scores are bit-identical regardless. ``arrived`` lets
        a caller backdate the request's arrival to when it finished its
        own pre-work (the HTTP service stamps post-sketching), so the
        traced ``queue_wait`` covers admission overhead too.
        """
        options = self.session.options
        k = options.k if k is None else k
        scorer = options.scorer if scorer is None else scorer
        # Validate per-request knobs and the sketch on the caller's
        # thread, before the request can enter a shared window: a bad
        # value (wrong type, unknown scorer, unhashable JSON like k=[5],
        # another hashing scheme) must fail only this call, never reach
        # the flusher or a window-mate.
        if not isinstance(k, int) or isinstance(k, bool):
            raise TypeError(f"k must be an integer, got {type(k).__name__}")
        if not isinstance(scorer, str):
            raise TypeError(
                f"scorer must be a string, got {type(scorer).__name__}"
            )
        if exclude_id is not None and not isinstance(exclude_id, str):
            raise TypeError(
                f"exclude_id must be a string or None, got "
                f"{type(exclude_id).__name__}"
            )
        options.merged(k=k, scorer=scorer)  # value validation (k>0, names)
        # The engine refuses a foreign hashing scheme for its whole
        # sub-batch, so a window-mate of such a sketch would fail too.
        check_scheme(self.session.catalog, sketch, "query sketch")
        request = _Pending(
            sketch, k, scorer, exclude_id, bool(trace), arrived
        )
        with self._cond:
            if self._closed:
                raise RuntimeError("coalescer is closed")
            self.stats["submitted"] += 1
            fast = (
                self.max_wait_ms == 0
                and not self._busy
                and not self._pending
            )
            if fast:
                self._busy = True
                self.stats["fast_path"] += 1
            else:
                self._pending.append(request)
                self._cond.notify_all()
        if not fast:
            request.done.wait()
            if request.error is not None:
                raise request.error
            return request.result
        # Fast path: the coalescer is idle and no window is configured —
        # execute on the caller's thread, exactly like a direct call.
        try:
            self._execute([request])
        finally:
            with self._cond:
                self._busy = False
                self._cond.notify_all()
        if request.error is not None:
            raise request.error
        return request.result

    # -- flusher side --------------------------------------------------------

    def _window_ready(self) -> bool:
        if not self._pending:
            return False
        if self._closed or len(self._pending) >= self.max_batch:
            return True
        waited_ms = (
            time.perf_counter() - self._pending[0].arrived
        ) * 1000.0
        return waited_ms >= self.max_wait_ms

    def _run(self) -> None:
        while True:
            with self._cond:
                while not (self._window_ready() and not self._busy):
                    if self._closed and not self._pending and not self._busy:
                        return
                    if self._pending and not self._busy:
                        # Window still filling: sleep only its remainder.
                        waited = (
                            time.perf_counter() - self._pending[0].arrived
                        )
                        timeout = max(
                            0.0, self.max_wait_ms / 1000.0 - waited
                        )
                        self._cond.wait(timeout)
                    else:
                        self._cond.wait()
                batch = self._pending[: self.max_batch]
                del self._pending[: self.max_batch]
                self._busy = True
                self.stats["batches"] += 1
                if len(batch) > 1:
                    self.stats["coalesced"] += len(batch)
                self.stats["largest_batch"] = max(
                    self.stats["largest_batch"], len(batch)
                )
            try:
                self._execute(batch)
            except BaseException as exc:  # noqa: BLE001 — see below
                # _execute hands per-group failures to their callers; an
                # exception escaping it is a coalescer bug. Fail the
                # batch (callers are blocked on done.wait()) but keep
                # the flusher alive — killing it would hang every
                # later request and deadlock close()'s drain.
                for request in batch:
                    if not request.done.is_set():
                        request.error = exc
                        request.done.set()
            finally:
                with self._cond:
                    self._busy = False
                    self._cond.notify_all()

    def _execute(self, batch: list[_Pending]) -> None:
        """Run one window as one sub-batch per ``(k, scorer, trace)``
        group."""
        get_registry().observe(
            "repro_coalescer_batch_size",
            len(batch),
            buckets=BATCH_SIZE_BUCKETS,
            help="Requests executed together per coalescer window",
        )
        groups: dict[tuple[int, str, bool], list[_Pending]] = {}
        for request in batch:
            try:
                key = (request.k, request.scorer, request.trace)
                groups.setdefault(key, []).append(request)
            except Exception as exc:  # unhashable k/scorer that slipped
                request.error = exc   # past submit's validation: fail
                request.done.set()    # this request, keep its window-mates
        for (k, scorer, trace), requests in groups.items():
            try:
                results = self.session.submit(
                    [r.sketch for r in requests],
                    exclude_ids=[r.exclude_id for r in requests],
                    options=self.session.options.merged(k=k, scorer=scorer),
                    trace=trace,
                    arrivals=(
                        [r.arrived for r in requests] if trace else None
                    ),
                )
            except BaseException as exc:  # noqa: BLE001 — handed to callers
                for request in requests:
                    request.error = exc
                    request.done.set()
                continue
            for request, result in zip(requests, results):
                request.result = result
                request.done.set()

    def stats_snapshot(self) -> dict[str, int]:
        """A consistent copy of :attr:`stats`, taken under the lock.

        The lock-free :attr:`stats` reads are safe per-counter but can
        tear *across* counters (e.g. ``submitted`` bumped while
        ``batches`` is not yet); versioned payloads like ``/healthz``
        snapshot instead.
        """
        with self._cond:
            return dict(self.stats)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drain every pending request, then stop the flusher (idempotent).

        Requests already in the window when close is called still
        execute and their callers get real results; only *new* submits
        are refused.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._flusher.join()

    def __enter__(self) -> "QueryCoalescer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
