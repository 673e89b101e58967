"""Long-lived HTTP query service over a warm :class:`QuerySession`.

Everything below the wire is the library's existing query stack — the
service adds *residency*: the catalog loads once, the indexes stay warm,
and concurrent clients share one process through the coalescing front
door (:mod:`repro.serving.coalescer`). Stdlib only
(``http.server.ThreadingHTTPServer``); no new dependencies.

Endpoints (JSON in, strict JSON out — NaN encodes as ``null`` and the
infinities as ``"Infinity"``/``"-Infinity"`` string sentinels, never as
the non-standard bare literals):

* ``POST /query`` — body ``{"keys": [...], "values": [...]}`` plus
  optional ``"k"``, ``"scorer"``, ``"exclude_id"``, ``"name"``. The
  column pair is sketched against the catalog's configuration and
  answered through the coalescer; the response body is exactly
  ``QueryResult.to_dict()`` — bit-identical to calling the underlying
  engine/router directly with the same options, including the
  ``shards_probed``/``shards_failed``/``degraded`` resilience fields.
* ``POST /estimate`` — body ``{"left": {"keys", "values"}, "right":
  {"keys", "values"}}`` plus optional ``"estimator"``; one-off
  after-join correlation estimate between two client-supplied columns.
* ``GET /catalog/info`` — catalog summary + the session's options.
* ``GET /healthz`` — versioned liveness payload: ``status``,
  ``version``, ``uptime_seconds``, coalescer counters (snapshotted
  under the stats lock — no torn cross-counter reads) and the shard
  summary.
* ``GET /metrics`` — Prometheus text exposition of the process
  :class:`~repro.obs.MetricsRegistry`: request counts, per-phase
  latency histograms, coalescer batch sizes, per-shard error counters.

A ``POST`` whose ``Content-Length`` exceeds :data:`MAX_BODY_BYTES` is
answered 413 from its headers; the body is never read. Every socket
read times out after :data:`READ_TIMEOUT_SECONDS` without a byte: a
body that stops arriving is answered 408 and its connection closed, a
request line or headers that stop arriving close the connection — so a
stalled client holds a handler thread, and :meth:`QueryService.stop`,
for that long at most.

**Observability.** The service owns a real registry for its lifetime
(installed process-globally on :meth:`QueryService.start`, restored to
the no-op default on :meth:`~QueryService.stop`) and always executes
queries traced — phase spans feed the histograms and the threshold-gated
slow-query log either way, but the ``trace`` block is stripped from the
response unless the client opted in with ``"trace": true``, keeping
untraced responses byte-identical to a service without instrumentation.

**Shutdown.** :meth:`QueryService.stop` (or SIGTERM/SIGINT under
:meth:`QueryService.run`) drains gracefully: the listener stops
accepting, in-flight handler threads run to completion
(``daemon_threads = False`` so ``server_close`` joins them), and the
coalescer executes every request already in its window before closing —
no accepted request is ever dropped.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.obs import (
    BATCH_SIZE_BUCKETS,
    MetricsRegistry,
    SlowQueryLog,
    render_prometheus,
    set_registry,
)
from repro.serving.coalescer import QueryCoalescer
from repro.serving.session import QuerySession

__all__ = ["QueryService"]

#: Served paths; anything else is labelled "other" in the HTTP request
#: counter so a client probing random URLs cannot mint unbounded series.
_KNOWN_PATHS = frozenset(
    {"/query", "/estimate", "/catalog/info", "/healthz", "/metrics"}
)

#: Largest request body the service reads. A column pair of a few
#: thousand rows is tens of KB and the heaviest body the repository sends
#: (a repeated-key table of ``benchmarks/record``) about 200 KB; anything
#: above this is refused with 413 before a byte of it is read.
MAX_BODY_BYTES = 8 << 20

#: The longest a socket read waits for the client's next byte, in
#: seconds. Idle time, not a total: an upload that keeps sending is never
#: cut off, one that stalls is answered 408 (see the module docs).
READ_TIMEOUT_SECONDS = 10.0


class _BodyTooLarge(ValueError):
    """The declared ``Content-Length`` exceeds :data:`MAX_BODY_BYTES`."""


class _BodyTimedOut(Exception):
    """The client stopped sending the declared body."""


class _Server(ThreadingHTTPServer):
    # Join in-flight handler threads on server_close so stop() is a
    # real drain, not an abandonment (ThreadingHTTPServer defaults to
    # daemon threads, which server_close would not wait for).
    daemon_threads = False
    # socketserver's default listen backlog of 5 drops/resets connects
    # when a burst of concurrent clients outruns the accept loop — the
    # exact regime the coalescing window exists for. 128 rides the
    # common somaxconn floor.
    request_queue_size = 128
    #: Installed by QueryService before the listener starts.
    service: "QueryService"


class _Handler(BaseHTTPRequestHandler):
    def setup(self) -> None:
        # StreamRequestHandler.setup applies ``timeout`` to the socket.
        self.timeout = READ_TIMEOUT_SECONDS
        super().setup()

    # Keep the access log out of stderr — the service is often run
    # under a test harness or a benchmark that parses its output.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _track(self, status: int) -> None:
        self.server.service.registry.inc(
            "repro_http_requests_total",
            help="HTTP requests served, by endpoint and status",
            endpoint=(
                self.path if self.path in _KNOWN_PATHS else "other"
            ),
            status=str(status),
        )

    def _reply(self, status: int, payload: dict) -> None:
        try:
            # allow_nan=False enforces the strict-JSON wire contract:
            # non-finite floats must already be encoded (json_float) —
            # the default encoder would emit NaN/Infinity literals that
            # non-Python clients cannot parse.
            body = json.dumps(payload, allow_nan=False).encode()
        except ValueError:
            status = 500
            body = json.dumps(
                {"error": "internal error: non-finite float in response"}
            ).encode()
        self._track(status)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_text(
        self, status: int, text: str, content_type: str
    ) -> None:
        body = text.encode()
        self._track(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length < 0:
            # read(-1) would block until the client hangs up.
            raise ValueError(f"Content-Length must not be negative, got {length}")
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raise _BodyTimedOut(
                f"request body not received within {self.timeout:g} s "
                f"of the last byte ({length} bytes declared)"
            )
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        service = self.server.service
        if self.path == "/healthz":
            self._reply(200, service.health_payload())
        elif self.path == "/metrics":
            self._reply_text(
                200,
                render_prometheus(service.registry),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif self.path == "/catalog/info":
            self._reply(200, service.session.catalog_info())
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        service = self.server.service
        if self.path not in ("/query", "/estimate"):
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            payload = self._read_json()
            if self.path == "/query":
                self._reply(200, service.handle_query(payload))
            else:
                self._reply(200, service.handle_estimate(payload))
        except _BodyTooLarge as exc:
            self._reply(413, {"error": str(exc)})
        except _BodyTimedOut as exc:
            self.close_connection = True
            self._reply(408, {"error": str(exc)})
        except (ValueError, KeyError, TypeError) as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - one service, many clients
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})


def _columns(payload: dict, *path: str) -> tuple[list, list]:
    """Extract a ``{"keys": [...], "values": [...]}`` pair, with errors
    that name the missing field (and where it was expected)."""
    where = "/".join(path) + "." if path else ""
    for field in ("keys", "values"):
        if field not in payload:
            raise ValueError(f"missing required field {where}{field!r}")
    keys, values = payload["keys"], payload["values"]
    if not isinstance(keys, list) or not isinstance(values, list):
        raise ValueError(f"{where}keys/{where}values must be JSON arrays")
    if len(keys) != len(values):
        raise ValueError(
            f"{where}keys has {len(keys)} entries but {where}values has "
            f"{len(values)}"
        )
    if not keys:
        raise ValueError(f"{where}keys/{where}values must be non-empty")
    for field, cells in (("keys", keys), ("values", values)):
        # One C-speed pass over the cell types; the index is looked up
        # only for a body that is refused anyway.
        nested = {list, dict} & set(map(type, cells))
        if nested:
            at = next(i for i, c in enumerate(cells) if type(c) in nested)
            raise ValueError(
                f"{where}{field}[{at}] is a JSON "
                f"{'array' if type(cells[at]) is list else 'object'}; "
                f"{where}{field} must hold scalars"
            )
    return keys, values


def _optional(payload: dict, field: str, kind: type, name: str):
    """``payload[field]`` — ``None`` when absent or null — refusing any
    other JSON type than ``kind`` with an error that names the field."""
    value = payload.get(field)
    if value is not None and type(value) is not kind:
        raise ValueError(f"{field} must be a JSON {name} or null")
    return value


class QueryService:
    """The HTTP front end: one session, one coalescer, one listener.

    Args:
        session: the warm :class:`QuerySession` to serve.
        host / port: bind address; ``port=0`` picks a free port
            (read it back from :attr:`address` — the test/bench idiom).
        max_batch / max_wait_ms: the coalescing window
            (see :class:`~repro.serving.coalescer.QueryCoalescer`).
        registry: the metrics registry to serve on ``/metrics``; by
            default the service builds its own.
        slow_query_ms: queries whose server-side wall time breaches
            this threshold are written to the slow-query log as
            single-line JSON records. ``None`` (default) disables it.
        slow_query_log: slow-query sink — a file path to append to, or
            ``None`` for stderr. Ignored unless ``slow_query_ms`` is
            set.
    """

    def __init__(
        self,
        session: QuerySession,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 16,
        max_wait_ms: float = 0.0,
        registry: MetricsRegistry | None = None,
        slow_query_ms: float | None = None,
        slow_query_log: str | Path | None = None,
    ) -> None:
        self.session = session
        self.registry = MetricsRegistry() if registry is None else registry
        self.slow_log = (
            None
            if slow_query_ms is None
            else SlowQueryLog(slow_query_ms, sink=slow_query_log)
        )
        self.coalescer = QueryCoalescer(
            session, max_batch=max_batch, max_wait_ms=max_wait_ms
        )
        self._httpd = _Server((host, port), _Handler)
        self._httpd.service = self
        self._thread: threading.Thread | None = None
        self._started_monotonic: float | None = None
        self._stopped = threading.Event()
        self._stop_requested_event = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — authoritative when ``port=0``."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- request handling (shared by HTTP and in-process callers) ------------

    def handle_query(self, payload: dict) -> dict:
        # The sketch phase runs from the decoded body to the query
        # sketch: checking the fields is part of it.
        start = time.perf_counter()
        keys, values = _columns(payload)
        want_trace = _optional(payload, "trace", bool, "boolean")
        name = _optional(payload, "name", str, "string")
        sketch = self.session.query_sketch(keys, values, name=name)
        sketched = time.perf_counter()
        sketch_ms = (sketched - start) * 1000.0
        # Always trace: the phase histograms and the slow-query log need
        # the spans whether or not the client asked to see them. Passing
        # ``arrived`` backdates the request to the post-sketch instant
        # so queue_wait also covers the coalescer's admission work.
        result = self.coalescer.submit(
            sketch,
            k=payload.get("k"),
            scorer=payload.get("scorer"),
            exclude_id=payload.get("exclude_id"),
            trace=True,
            arrived=sketched,
        )
        encode_start = time.perf_counter()
        body = result.to_dict()
        end = time.perf_counter()
        trace = body.get("trace")
        if trace is not None:
            encode_ms = (end - encode_start) * 1000.0
            spans = trace["spans"]
            # Sketching happens before the request even enters the
            # window, so its span sits before the earliest recorded
            # start (queue_wait's negative start when coalesced).
            first = min(
                (s["start_ms"] for s in spans if "parent" not in s),
                default=0.0,
            )
            spans.insert(
                0,
                {
                    "name": "sketch",
                    "start_ms": first - sketch_ms,
                    "duration_ms": sketch_ms,
                },
            )
            # Everything after the last execution phase and before the
            # encode is hand-off: result finalization in the session
            # plus waking this handler from the coalescer. Measured as
            # the wall time the other spans leave unaccounted.
            anchor = max(
                (
                    s["start_ms"] + s["duration_ms"]
                    for s in spans
                    if "parent" not in s
                ),
                default=0.0,
            )
            span_of = {s["name"]: s for s in spans if "parent" not in s}
            deliver_ms = max(
                0.0,
                (encode_start - start) * 1000.0
                - sketch_ms
                - span_of.get("queue_wait", {"duration_ms": 0.0})[
                    "duration_ms"
                ]
                - anchor,
            )
            spans.append(
                {
                    "name": "deliver",
                    "start_ms": anchor,
                    "duration_ms": deliver_ms,
                }
            )
            spans.append(
                {
                    "name": "wire_encode",
                    "start_ms": anchor + deliver_ms,
                    "duration_ms": encode_ms,
                }
            )
            for name, value in (
                ("sketch", sketch_ms),
                ("deliver", deliver_ms),
                ("wire_encode", encode_ms),
            ):
                self.registry.observe(
                    "repro_phase_seconds",
                    value / 1000.0,
                    help="Per-query time in each top-level query phase",
                    phase=name,
                )
            if self.slow_log is not None:
                self.slow_log.maybe_record(
                    total_ms=(end - start) * 1000.0, trace=trace
                )
            if not want_trace:
                del body["trace"]
        return body

    def health_payload(self) -> dict:
        """The versioned ``/healthz`` body (counters snapshotted under
        their locks — no torn cross-counter reads)."""
        # Deferred: repro/__init__ imports this module, so the package
        # attribute is not bound yet at our import time.
        from repro import __version__

        uptime = (
            0.0
            if self._started_monotonic is None
            else time.monotonic() - self._started_monotonic
        )
        return {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": round(uptime, 3),
            "coalescer": self.coalescer.stats_snapshot(),
            "shards": {
                "count": getattr(self.session.catalog, "n_shards", 1),
                "errors": int(
                    sum(
                        value
                        for _, value in self.registry.counter_samples(
                            "repro_shard_errors_total"
                        )
                    )
                ),
            },
        }

    def handle_estimate(self, payload: dict) -> dict:
        for side in ("left", "right"):
            if side not in payload or not isinstance(payload[side], dict):
                raise ValueError(
                    f"missing required object field {side!r} "
                    "({'keys': [...], 'values': [...]})"
                )
        left_keys, left_values = _columns(payload["left"], "left")
        right_keys, right_values = _columns(payload["right"], "right")
        return self.session.estimate(
            left_keys,
            left_values,
            right_keys,
            right_values,
            estimator=payload.get("estimator", "pearson"),
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "QueryService":
        """Serve on a background thread; returns immediately."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        set_registry(self.registry)
        # Declare the core families up front so a scrape of a fresh
        # service already shows the full schema.
        self.registry.declare(
            "repro_http_requests_total",
            "counter",
            help="HTTP requests served, by endpoint and status",
        )
        self.registry.declare(
            "repro_queries_total",
            "counter",
            help="Queries served through QuerySession.submit",
        )
        self.registry.declare(
            "repro_query_seconds",
            "histogram",
            help="End-to-end per-query latency (queue wait + equal "
            "share of batch execution)",
        )
        self.registry.declare(
            "repro_phase_seconds",
            "histogram",
            help="Per-query time in each top-level query phase",
        )
        self.registry.declare(
            "repro_coalescer_batch_size",
            "histogram",
            help="Requests executed together per coalescer window",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self.registry.declare(
            "repro_shard_errors_total",
            "counter",
            help="Shards that failed their availability check, by shard",
        )
        self._started_monotonic = time.monotonic()
        self.session.warm()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="query-service",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Graceful drain (idempotent): stop accepting, finish in-flight
        handlers, flush the coalescer window, release the session."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
        self._httpd.server_close()  # joins in-flight handler threads
        self.coalescer.close()      # drains the pending window
        self.session.close()
        set_registry(None)          # restore the process no-op default

    def wait_for_shutdown(self, *, install_signals: bool = True) -> None:
        """Block until SIGTERM/SIGINT (or :meth:`request_stop`), then
        drain.

        The listener runs on a background thread while the calling
        thread waits on an event the signal handlers set, so a handler
        never calls ``shutdown()`` from the thread running
        ``serve_forever`` (that self-join deadlocks).
        """
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(
                    signum, lambda *_: self._stop_requested_event.set()
                )
        try:
            self._stop_requested_event.wait()
        finally:
            self.stop()

    def request_stop(self) -> None:
        """Unblock :meth:`wait_for_shutdown` (signal-handler equivalent,
        callable from any thread)."""
        self._stop_requested_event.set()

    def run(self, *, install_signals: bool = True) -> None:
        """Serve until SIGTERM/SIGINT, then drain — the CLI entry point."""
        self.start()
        self.wait_for_shutdown(install_signals=install_signals)

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
