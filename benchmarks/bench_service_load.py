"""HTTP service under concurrent load: coalesced vs per-request execution.

The question the query service exists to answer: when many clients hit
one warm catalog *concurrently*, does the coalescing front door
(:class:`repro.serving.coalescer.QueryCoalescer`) actually buy
throughput over executing each request by itself? The batch pipeline's
amortization is timed by the ``batch_bootstrap`` workload of the
benchmark of record (``benchmarks/record/``); this benchmark closes the loop end-to-end — real HTTP clients, real sockets, the
adaptive window forming batches only because executions are in flight.

Two service configurations over the same warm session, same clients:

* **per-request** — ``max_batch=1``: every request executes alone
  (the window can never hold two), i.e. a conventional threaded server.
* **coalesced** — ``max_batch=16`` with the adaptive ``max_wait_ms=0``
  window: an idle service answers immediately; under load, arrivals
  queue behind the in-flight execution and flush as one batch.

Responses are bit-identical either way (the parity suite pins this);
the benchmark measures wall-clock only: client-observed p50/p99 latency
and aggregate throughput for N concurrent clients. Results land in
``benchmarks/results/service_load.txt``. ``--quick`` shrinks to a
CI-sized smoke (no throughput assertion).
"""

from __future__ import annotations

import json
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from conftest import write_result
from repro.core.sketch import CorrelationSketch
from repro.index.catalog import SketchCatalog
from repro.index.options import QueryOptions
from repro.serving import QueryService, QuerySession

CATALOG_SKETCHES = 1024
QUICK_SKETCHES = 128
SKETCH_SIZE = 256
ROWS_PER_SKETCH = 400
KEY_UNIVERSE = 6_000
RETRIEVAL_DEPTH = 100

#: The acceptance regime: coalescing must win at >=8 concurrent clients.
CLIENTS = 16
QUICK_CLIENTS = 8
REQUESTS_PER_CLIENT = 6
QUICK_REQUESTS = 1
#: Best-of-N rounds per configuration filters scheduler noise.
ROUNDS = 3


def _build_world(n_sketches: int, n_clients: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    catalog = SketchCatalog(sketch_size=SKETCH_SIZE)
    batch = []
    for i in range(n_sketches):
        keys = rng.choice(KEY_UNIVERSE, ROWS_PER_SKETCH, replace=False)
        sid = f"pair{i:05d}"
        batch.append(
            (
                sid,
                CorrelationSketch.from_columns(
                    keys,
                    rng.standard_normal(ROWS_PER_SKETCH),
                    SKETCH_SIZE,
                    hasher=catalog.hasher,
                    name=sid,
                ),
            )
        )
    catalog.add_sketches(batch)
    payloads = []
    for _ in range(n_clients):
        keys = rng.choice(KEY_UNIVERSE, ROWS_PER_SKETCH, replace=False)
        payloads.append(
            json.dumps(
                {
                    "keys": keys.tolist(),
                    "values": rng.standard_normal(ROWS_PER_SKETCH).tolist(),
                }
            ).encode()
        )
    return catalog, payloads


def _drive(url: str, payloads, n_clients: int, requests_per_client: int):
    """N concurrent clients, each issuing its requests back-to-back.

    Returns (wall_seconds, sorted per-request latencies)."""

    def client(i):
        body = payloads[i]
        latencies = []
        for _ in range(requests_per_client):
            request = urllib.request.Request(
                url + "/query",
                data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            t0 = time.perf_counter()
            with urllib.request.urlopen(request, timeout=120) as response:
                json.loads(response.read())
            latencies.append(time.perf_counter() - t0)
        return latencies

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=n_clients) as pool:
        futures = [pool.submit(client, i) for i in range(n_clients)]
        latencies = [lat for f in futures for lat in f.result()]
    wall = time.perf_counter() - t0
    return wall, sorted(latencies)


def _percentile(sorted_latencies, q: float) -> float:
    index = min(
        len(sorted_latencies) - 1, round(q * (len(sorted_latencies) - 1))
    )
    return sorted_latencies[index]


def _measure(catalog, payloads, *, max_batch, n_clients, requests, rounds):
    session = QuerySession.for_catalog(
        catalog, QueryOptions(k=10, depth=RETRIEVAL_DEPTH)
    )
    best_wall = np.inf
    best_latencies = None
    stats = None
    with QueryService(session, max_batch=max_batch) as service:
        # Prewarm: postings freeze + both code paths, outside the clock.
        _drive(service.url, payloads, min(2, n_clients), 1)
        for _ in range(rounds):
            wall, latencies = _drive(
                service.url, payloads, n_clients, requests
            )
            if wall < best_wall:
                best_wall, best_latencies = wall, latencies
        stats = dict(service.coalescer.stats)
    return best_wall, best_latencies, stats


def test_service_load(quick):
    n_sketches = QUICK_SKETCHES if quick else CATALOG_SKETCHES
    n_clients = QUICK_CLIENTS if quick else CLIENTS
    requests = QUICK_REQUESTS if quick else REQUESTS_PER_CLIENT
    rounds = 1 if quick else ROUNDS
    catalog, payloads = _build_world(n_sketches, n_clients)
    total = n_clients * requests

    solo_wall, solo_lat, _ = _measure(
        catalog, payloads,
        max_batch=1, n_clients=n_clients, requests=requests, rounds=rounds,
    )
    coal_wall, coal_lat, coal_stats = _measure(
        catalog, payloads,
        max_batch=16, n_clients=n_clients, requests=requests, rounds=rounds,
    )

    solo_rps = total / solo_wall
    coal_rps = total / coal_wall
    gain = coal_rps / solo_rps
    lines = [
        f"catalog sketches     : {len(catalog)} "
        f"(sketch size {SKETCH_SIZE}, depth {RETRIEVAL_DEPTH})",
        f"load                 : {n_clients} concurrent clients x "
        f"{requests} requests (best of {rounds} rounds)",
        "(HTTP POST /query end to end; responses bit-identical across",
        " configurations — pinned by tests/test_serving_server.py)",
        f"per-request (batch=1): {solo_rps:8.1f} req/s   "
        f"p50 {_percentile(solo_lat, 0.50) * 1000:7.1f} ms   "
        f"p99 {_percentile(solo_lat, 0.99) * 1000:7.1f} ms",
        f"coalesced (batch<=16): {coal_rps:8.1f} req/s   "
        f"p50 {_percentile(coal_lat, 0.50) * 1000:7.1f} ms   "
        f"p99 {_percentile(coal_lat, 0.99) * 1000:7.1f} ms",
        f"throughput gain      : {gain:8.2f}x",
        f"coalescer telemetry  : largest_batch="
        f"{coal_stats['largest_batch']} "
        f"coalesced={coal_stats['coalesced']}/{coal_stats['submitted']} "
        "(includes prewarm + all rounds)",
    ]
    if quick:
        lines.append("(quick mode: CI smoke scale, gain assertion skipped)")
    write_result("service_load.txt", "\n".join(lines))

    if quick:
        return
    # Acceptance bar: under >=8 concurrent clients the adaptive window
    # must actually form batches and convert the batch pipeline's
    # amortization into end-to-end throughput.
    assert n_clients >= 8
    assert coal_stats["largest_batch"] > 1
    assert gain > 1.0
