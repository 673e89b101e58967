"""The ``http_serve`` workload: the whole production stack over HTTP.

A ``python -m repro.cli serve --catalog-dir DIR --port 0`` subprocess
serves the corpus split into arena shards; one closed-loop client posts
raw ⟨keys, values⟩ columns to ``/query``, a new connection per request
(the server speaks HTTP/1.0). That is ``serving.server`` parsing and
server-side sketching (``hashing``, ``core``), the ``coalescer`` fast
path, ``session``, the ``router`` over ``shards``/``manifest``/``arena``
and the wire encoding — everything ``point_query`` bypasses.

Closed loop, one caller: two concurrent connections did not repeat under
any estimator on the 2-vCPU host and were slower than one, so
concurrency is a per-layer observation here (``conn2``), not a metric.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.index.engine import QueryResult
from repro.index.options import QueryOptions
from repro.serving.server import QueryService
from repro.serving.session import QuerySession
from repro.serving.shards import ShardedCatalog

import fixtures
from replaymin import (
    Replay,
    SetupSteps,
    SideProbes,
    Yardstick,
    digest,
    median_ms,
    peak_rss_kb,
)

SCORER = "rp_cih"
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


class Server:
    """One ``repro.cli serve`` subprocess and its address."""

    def __init__(self, catalog_dir: Path, log: Path, env: dict) -> None:
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--catalog-dir", str(catalog_dir), "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
        )
        self.host = ""
        self.port = 0

    def wait_listening(self) -> None:
        """Block until the ``listening`` line (or the process dies)."""
        fd = self.proc.stdout.fileno()
        seen = b""
        deadline = time.monotonic() + START_TIMEOUT_S
        while b"listening" not in seen or not seen.endswith(b"\n"):
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                raise RuntimeError(f"server did not come up; said {seen!r}")
            seen += chunk
        for line in seen.decode().splitlines():
            if line.startswith("listening"):
                address = line.split("http://", 1)[1].strip()
                self.host, port = address.rsplit(":", 1)
                self.port = int(port)

    def request(self, method: str, path: str, body: bytes | None = None):
        """One request on a new connection; returns (status, body)."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def query(self, body: bytes) -> bytes:
        status, payload = self.request("POST", "/query", body)
        if status != 200:
            raise RuntimeError(f"/query answered {status}: {payload[:200]!r}")
        return payload

    def stop(self) -> None:
        """Kill and reap (a throwaway server has nothing to drain)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _ranked_digest(payload: bytes) -> str:
    # Only the ranking repeats; the body also carries wall-clock fields.
    return digest(json.loads(payload)["ranked"])


def run(seed: int, seconds: float, scale, work: Path, trace: bool, env: dict):
    """The whole workload, driver side; returns (results, tables)."""
    started = time.perf_counter()
    tables = fixtures.shaped_tables(seed, scale.corpus_tables + scale.query_tables)
    corpus, held_out = tables[: scale.corpus_tables], tables[scale.corpus_tables:]
    catalog = fixtures.build_catalog(corpus)
    catalog_dir = work / "shards"
    fixtures.write_sharded(catalog, scale.http_shards, catalog_dir)
    n_ops = min(scale.http_ops, scale.http_trace_ops) if trace else scale.http_ops
    rounds = (
        scale.trace_rounds
        if trace
        else fixtures.rounds_for(scale.http_rounds, seconds, scale)
    )
    # Tables with repeated keys are left to the other workloads: their
    # 200 KB bodies take 40 ms and more to serve, a few of them would own
    # both the tail and the time budget, and long operations are the ones
    # the minimum cleans worst.
    light = [t for t in held_out if not fixtures.repeats_keys(t)]
    refs = fixtures.query_refs(light, n_ops)
    bodies = [fixtures.request_body(table, pair) for table, pair in refs]
    log = work / "server.log"
    gc.collect()
    gc.freeze()
    fixtures_s = time.perf_counter() - started

    yardstick = Yardstick()
    setup = SetupSteps()
    server = None
    replay = Replay(n_ops)
    try:
        for _ in range(1 if trace else scale.setup_passes):
            if server is not None:
                server.stop()
            with setup.step("spawn_to_listening"):
                server = Server(catalog_dir, log, env)
                server.wait_listening()
            with setup.step("healthz"):
                status, _ = server.request("GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
            for i in range(scale.http_cold):
                with setup.step(f"cold-{i:03d}"):
                    server.query(bodies[i])
            yardstick.tick()

        traced = _Traced(server, catalog, catalog_dir, bodies) if trace else None
        first_round: list = []
        for r in range(rounds):
            outputs = replay.run_round(
                bodies, server.query, _ranked_digest,
                after=None if traced is None else traced.probes.sample,
            )
            if r == 0:
                first_round = outputs
            yardstick.tick()

        rss_kb = peak_rss_kb(server.proc.pid)
        layers = traced.layers(replay, setup, rounds) if traced is not None else {}
    finally:
        if server is not None:
            server.stop()

    # Every response must be the in-process session's answer for the
    # same columns: ranked ids, scores and statistics, bit for bit. The
    # twin is asked for the whole depth-100 pool, whose head that is.
    quality = []
    with QuerySession.open(
        catalog_dir, QueryOptions(k=fixtures.DEPTH, depth=fixtures.DEPTH, scorer=SCORER)
    ) as oracle:
        for i, (body, answer) in enumerate(zip(bodies, first_round)):
            if answer is None:
                continue
            request = json.loads(body)
            sketch = oracle.query_sketch(
                request["keys"], request["values"], name=request["name"]
            )
            pool = oracle.submit_one(sketch).ranked
            expected = [c.to_dict() for c in pool[: fixtures.K]]
            served = QueryResult.from_dict(json.loads(answer)).to_dict()["ranked"]
            if served != expected:
                replay.fail(i, f"op {i}: response differs from the in-process answer")
            if i < scale.quality_ops:
                quality.append(
                    {
                        "query": request["name"],
                        "top": [[c.candidate_id, c.stats.r_pearson] for c in pool[: fixtures.K]],
                        "pool": [c.candidate_id for c in pool],
                    }
                )

    return {
        "replay": replay.to_dict(),
        "setup": setup.steps,
        "yardstick": yardstick.samples,
        "quality": quality,
        "units": n_ops,
        "rss_kb": rss_kb,
        "snapshot_bytes": fixtures.directory_bytes(catalog_dir),
        "sketches": len(catalog),
        "layers": layers,
        "fixtures_s": fixtures_s,
    }, tables


# -- traced run -------------------------------------------------------------


class _Traced:
    """This workload's layer probes, sampled right after each request of
    the same rounds. The stages inside the server are read from the
    program's own span block (``"trace": true``); nothing is added
    inside ``src/``. In process — against the same shard directory — run
    the service's handler, the router, and a monolithic engine over the
    same sketches for the router's overhead."""

    def __init__(self, server: Server, catalog, catalog_dir: Path, bodies) -> None:
        self.server = server
        self.catalog = catalog
        self.catalog_dir = catalog_dir
        self.bodies = bodies
        n = len(bodies)
        options = QueryOptions(k=fixtures.K, depth=fixtures.DEPTH, scorer=SCORER)
        self.requests = [json.loads(body) for body in bodies]
        traced_bodies = [
            json.dumps({**request, "trace": True}).encode()
            for request in self.requests
        ]
        self.session = QuerySession.open(catalog_dir, options)
        self.service = QueryService(self.session)
        self.monolithic = QuerySession.for_catalog(catalog, options)
        sketches = [
            self.session.query_sketch(r["keys"], r["values"], name=r["name"])
            for r in self.requests
        ]
        self.keys = [np.asarray(r["keys"]) for r in self.requests]
        self.phase_ms: dict[str, np.ndarray] = {}
        self.response_bytes: list[int] = []
        self.shards_probed: list[int] = []

        def served_traced(i, body):
            payload = server.query(traced_bodies[i])
            self.response_bytes.append(len(payload))
            for span in json.loads(payload)["trace"]["spans"]:
                if "parent" not in span:
                    row = self.phase_ms.setdefault(span["name"], np.full(n, np.inf))
                    row[i] = min(row[i], span["duration_ms"])

        def routed(i, body):
            self.shards_probed.append(
                self.session.submit_one(sketches[i]).shards_probed
            )

        self.probes = SideProbes(
            n,
            {
                "served_traced": served_traced,
                "handled": lambda i, body: self.service.handle_query(self.requests[i]),
                "routed": routed,
                "monolithic": lambda i, body: self.monolithic.submit_one(sketches[i]),
                "hashed": lambda i, body: catalog.hasher.hash_batch(self.keys[i]),
            },
        )

    def layers(self, replay: Replay, setup: SetupSteps, rounds: int) -> dict:
        self.service.stop()  # closes its session too
        self.monolithic.close()
        e2e = replay.clean()
        clean = self.probes.clean
        phase_ms = self.phase_ms
        for row in phase_ms.values():
            row[np.isinf(row)] = 0.0
        coverage = float(
            sum(row.sum() for row in phase_ms.values())
            / 1e3
            / clean["served_traced"].sum()
        )
        loads = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            ShardedCatalog.load(self.catalog_dir).warm()
            loads.append(time.perf_counter() - t0)
        n_keys = np.asarray([len(k) for k in self.keys], dtype=float)
        conn2 = _two_connections(self.server, self.bodies)
        return {
            "trace.stage_coverage_ratio": coverage,
            "trace.overhead_ratio": float(
                np.median(clean["served_traced"]) / np.median(e2e)
            ),
            "obs.trace.coverage_ratio": coverage,
            "index.inverted.probe_ms": float(np.median(phase_ms["retrieval"])),
            "core.assemble_ms": float(np.median(phase_ms["assemble"])),
            "ranking.scoring.score_ms": float(np.median(phase_ms["score"])),
            "ranking.ranker.rank_ms": float(np.median(phase_ms["merge"])),
            "serving.server.handle_query_ms": median_ms(clean["handled"]),
            "serving.server.request_sketch_ms": float(np.median(phase_ms["sketch"])),
            "serving.server.wire_overhead_ms": median_ms(e2e - clean["handled"]),
            "serving.server.spawn_to_ready_ms": (
                setup.step_ms("spawn_to_listening") + setup.step_ms("healthz")
            ),
            "serving.server.request_bytes_mean": float(
                np.mean([len(b) for b in self.bodies])
            ),
            "serving.server.response_bytes_mean": float(np.mean(self.response_bytes)),
            "serving.server.conn2_throughput_ratio": conn2["ratio"],
            "serving.coalescer.batch_size_mean_conn2": conn2["batch_size_mean"],
            "serving.router.query_ms": median_ms(clean["routed"]),
            "serving.router.overhead_ratio": float(
                np.median(clean["routed"]) / np.median(clean["monolithic"])
            ),
            "serving.shards.load_warm_ms": min(loads) * 1e3,
            "serving.shards.probed_per_query": float(np.mean(self.shards_probed)),
            "hashing.hash_batch_ns_per_key": float(
                np.median(clean["hashed"] / n_keys) * 1e9
            ),
            "hashing.keys_hashed": float(n_keys.sum()),
            "index.snapshot.bytes_per_sketch": (
                fixtures.directory_bytes(self.catalog_dir) / len(self.catalog)
            ),
        }


def _two_connections(server: Server, bodies) -> dict:
    """Informational: one pass of the requests over two concurrent
    closed-loop connections, relative to one pass over one."""
    t0 = time.perf_counter()
    for body in bodies:
        server.query(body)
    one = time.perf_counter() - t0
    before = json.loads(server.request("GET", "/healthz")[1])["coalescer"]
    errors: list[Exception] = []

    def client(share):
        try:
            for body in share:
                server.query(body)
        except Exception as exc:  # noqa: BLE001 - re-raised on the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(bodies[i::2],)) for i in range(2)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    two = time.perf_counter() - t0
    if errors:
        raise errors[0]
    after = json.loads(server.request("GET", "/healthz")[1])["coalescer"]
    executions = (after["fast_path"] - before["fast_path"]) + (
        after["batches"] - before["batches"]
    )
    return {
        "ratio": one / two,
        "batch_size_mean": len(bodies) / max(1, executions),
    }
