"""HTTP query service: wire responses bit-identical to direct calls.

The server is a thin residency layer — these tests pin that thinness:
a ``POST /query`` body equals ``QueryResult.to_dict()`` from a direct
backend call with the same options (all scorers, both rng modes, both
retrieval backends), degraded shard accounting passes through to the
wire untouched, malformed requests get 400s with named fields, and the
``repro-sketch serve`` process drains cleanly on SIGTERM.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.index.options import QueryOptions
from repro.ranking.scoring import RNG_MODES, SCORER_NAMES
from repro.serving import (
    QueryService,
    QuerySession,
    ShardedCatalog,
)
from repro.serving.faults import injected
from row_sketch_oracle import row_sketch

N_SKETCHES = 24
SKETCH_SIZE = 64
ROWS = 160
UNIVERSE = 900


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(31)
    hasher = KeyHasher()
    pairs = []
    columns = {}
    for i in range(N_SKETCHES):
        keys = rng.choice(UNIVERSE, ROWS, replace=False)
        values = rng.standard_normal(ROWS)
        name = f"pair{i:02d}"
        columns[name] = (keys, values)
        pairs.append(
            (
                name,
                CorrelationSketch.from_columns(
                    keys, values, SKETCH_SIZE, hasher=hasher, name=name
                ),
            )
        )
    mono = SketchCatalog(sketch_size=SKETCH_SIZE, hasher=hasher)
    mono.add_sketches(pairs)
    sharded = ShardedCatalog(2, sketch_size=SKETCH_SIZE, hasher=hasher)
    sharded.add_sketches(pairs)
    query_keys = rng.choice(UNIVERSE, 240, replace=False)
    query_values = rng.standard_normal(240)
    return mono, sharded, columns, (query_keys, query_values)


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post_error(url, body: bytes):
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30):
            raise AssertionError("expected an HTTP error")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _strip_timing(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if not k.endswith("_seconds")}


# -- /query parity ------------------------------------------------------------


class TestQueryParity:
    @pytest.mark.parametrize("rng_mode", RNG_MODES)
    @pytest.mark.parametrize("backend", ["inverted", "lsh"])
    def test_http_equals_direct(self, corpus, rng_mode, backend):
        """The response body for every scorer is bit-identical (timing
        aside) to QueryResult.to_dict() from a direct backend call."""
        mono, _, _, (keys, values) = corpus
        options = QueryOptions(
            k=6,
            rng_mode=rng_mode,
            retrieval_backend=backend,
            lsh_bands=32 if backend == "lsh" else None,
            lsh_rows=1 if backend == "lsh" else None,
        )
        reference = QuerySession.for_catalog(mono, options)
        with QueryService(
            QuerySession.for_catalog(mono, options)
        ) as service:
            for scorer in SCORER_NAMES:
                status, body = _post(
                    service.url + "/query",
                    {
                        "keys": keys.tolist(),
                        "values": values.tolist(),
                        "scorer": scorer,
                    },
                )
                assert status == 200
                expected = reference.submit_one(
                    reference.query_sketch(keys, values),
                    options=options.merged(scorer=scorer),
                )
                assert _strip_timing(body) == _strip_timing(
                    expected.to_dict()
                )

    def test_sharded_service(self, corpus):
        _, sharded, _, (keys, values) = corpus
        options = QueryOptions(k=5)
        with QueryService(
            QuerySession.for_sharded(sharded, options)
        ) as service:
            status, body = _post(
                service.url + "/query",
                {"keys": keys.tolist(), "values": values.tolist()},
            )
        assert status == 200
        assert body["shards_probed"] == 2
        assert body["shards_failed"] == 0
        assert body["degraded"] is False
        with QuerySession.for_sharded(sharded, options) as reference:
            expected = reference.submit_one(
                reference.query_sketch(keys, values)
            )
        assert _strip_timing(body) == _strip_timing(expected.to_dict())

    def test_exclude_id_and_k(self, corpus):
        mono, _, columns, _ = corpus
        keys, values = columns["pair03"]
        with QueryService(QuerySession.for_catalog(mono)) as service:
            _, with_self = _post(
                service.url + "/query",
                {"keys": keys.tolist(), "values": values.tolist(), "k": 3},
            )
            _, without_self = _post(
                service.url + "/query",
                {
                    "keys": keys.tolist(),
                    "values": values.tolist(),
                    "k": 3,
                    "exclude_id": "pair03",
                },
            )
        assert with_self["ranked"][0]["candidate_id"] == "pair03"
        assert len(with_self["ranked"]) == 3
        assert all(
            entry["candidate_id"] != "pair03"
            for entry in without_self["ranked"]
        )

    def test_json_string_keys_hash_like_csv_keys(self):
        """String keys off the wire join string keys indexed from a
        table: ``query_sketch`` hashes the UTF-8 bytes the scalar port
        does, whichever route the batch hash takes. A JSON list mixing
        strings with numbers is stringified (what ``np.asarray`` makes
        of it), so ``1`` and ``2.5`` meet the indexed ``"1"`` and
        ``"2.5"``."""
        names = ["1", "2.5", "abc", "São Tomé", "日本", ""] + [
            f"key-{i}" for i in range(40)
        ]
        values = np.arange(len(names), dtype=float)
        catalog = SketchCatalog(sketch_size=SKETCH_SIZE)
        # The scalar port, row by row.
        indexed = row_sketch(zip(names, values), SKETCH_SIZE, name="indexed")
        catalog.add_sketch("indexed", indexed)
        mixed = [1, 2.5] + names[2:]
        session = QuerySession.for_catalog(catalog, QueryOptions(k=3))
        for keys in (names, mixed):
            sketch = session.query_sketch(keys, values.tolist())
            assert sketch.entries() == catalog.get("indexed").entries()
        with QueryService(QuerySession.for_catalog(catalog, QueryOptions(k=3))) as service:
            bodies = [
                _post(service.url + "/query", {"keys": keys, "values": values.tolist()})
                for keys in (names, mixed)
            ]
        expected = session.submit_one(session.query_sketch(names, values))
        for status, body in bodies:
            assert status == 200
            assert body["ranked"][0]["candidate_id"] == "indexed"
            assert _strip_timing(body) == _strip_timing(expected.to_dict())

    def test_degraded_accounting_reaches_the_wire(self, corpus):
        """A shard failure under on_shard_error=partial surfaces in the
        response exactly as the router reports it — the server adds no
        interpretation layer over to_dict()."""
        _, sharded, _, (keys, values) = corpus
        options = QueryOptions(k=5, on_shard_error="partial")
        with QueryService(
            QuerySession.for_sharded(sharded, options)
        ) as service:
            with injected({"shard_probe": {"shard": 0, "kind": "exception"}}):
                status, body = _post(
                    service.url + "/query",
                    {"keys": keys.tolist(), "values": values.tolist()},
                )
        assert status == 200
        assert body["shards_probed"] == 2
        assert body["shards_failed"] == 1
        assert body["degraded"] is True
        assert body["ranked"]  # partial answer, not an empty one

    def test_partial_service_starts_over_a_truncated_shard(self, corpus, tmp_path):
        """A shard that cannot load stops a service at start-up only under
        the default `raise` policy; under `partial` warming skips it and
        /query answers 200 from the survivor, flagged degraded."""
        _, sharded, _, (keys, values) = corpus
        copy = ShardedCatalog(2, sketch_size=SKETCH_SIZE, hasher=sharded.hasher)
        copy.add_sketches((sid, sharded.get(sid)) for sid in sharded)
        directory = tmp_path / "shards"
        copy.save(directory)
        shard_file = directory / "shard-0001.arena"
        shard_file.write_bytes(shard_file.read_bytes()[: shard_file.stat().st_size // 2])
        with pytest.raises(ValueError, match="truncated"):
            QuerySession.open(directory, QueryOptions(k=5)).warm()
        session = QuerySession.open(
            directory, QueryOptions(k=5, on_shard_error="partial")
        )
        with QueryService(session) as service:
            status, body = _post(
                service.url + "/query",
                {"keys": keys.tolist(), "values": values.tolist()},
            )
        assert status == 200
        assert (body["shards_probed"], body["shards_failed"]) == (2, 1)
        assert body["degraded"] is True
        assert body["ranked"]


# -- other endpoints ----------------------------------------------------------


class TestEndpoints:
    def test_estimate(self, corpus):
        mono, _, _, (keys, values) = corpus
        with QueryService(QuerySession.for_catalog(mono)) as service:
            status, body = _post(
                service.url + "/estimate",
                {
                    "left": {"keys": keys.tolist(), "values": values.tolist()},
                    "right": {
                        "keys": keys.tolist(),
                        "values": values.tolist(),
                    },
                },
            )
        assert status == 200
        assert body["correlation"] == pytest.approx(1.0)
        assert body["estimator"] == "pearson"
        assert body["sample_size"] > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_estimate_huge_values_answers_strict_json(self, corpus):
        """Values whose range squared overflows float64 (×1e155) answer 200
        with a finite correlation and the vacuous intervals, not a 500
        OverflowError."""
        mono, _, _, (keys, values) = corpus
        side = {"keys": keys.tolist(), "values": (values * 1e155).tolist()}
        with QueryService(QuerySession.for_catalog(mono)) as service:
            request = urllib.request.Request(
                service.url + "/estimate",
                data=json.dumps({"left": side, "right": side}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                status, raw = response.status, response.read()

        def strict(token):
            raise AssertionError(f"non-strict JSON literal {token}")

        body = json.loads(raw, parse_constant=strict)
        assert status == 200
        assert body["sample_size"] > 0
        assert -1.0 <= body["correlation"] <= 1.0  # scale-invariant, finite
        assert body["hoeffding"] == {"low": -1.0, "high": 1.0}
        assert body["hfd"] == {"low": -1.0, "high": 1.0}

    def test_healthz_and_catalog_info(self, corpus):
        mono, _, _, (keys, values) = corpus
        session = QuerySession.for_catalog(mono, QueryOptions(k=7))
        with QueryService(session) as service:
            _post(
                service.url + "/query",
                {"keys": keys.tolist(), "values": values.tolist()},
            )
            status, health = _get(service.url + "/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["coalescer"]["submitted"] == 1
            status, info = _get(service.url + "/catalog/info")
        assert status == 200
        assert info == session.catalog_info()

    def test_bad_requests_get_400(self, corpus):
        mono, _, _, (keys, values) = corpus
        with QueryService(QuerySession.for_catalog(mono)) as service:
            url = service.url + "/query"
            code, body = _post_error(url, b"{not json")
            assert code == 400 and "not valid JSON" in body["error"]
            code, body = _post_error(url, b"[1, 2]")
            assert code == 400 and "JSON object" in body["error"]
            code, body = _post_error(url, json.dumps({"keys": [1]}).encode())
            assert code == 400 and "'values'" in body["error"]
            code, body = _post_error(
                url, json.dumps({"keys": [1, 2], "values": [1.0]}).encode()
            )
            assert code == 400 and "2 entries" in body["error"]
            code, body = _post_error(
                url, json.dumps({"keys": [], "values": []}).encode()
            )
            assert code == 400 and "non-empty" in body["error"]
            code, body = _post_error(
                url,
                json.dumps(
                    {
                        "keys": keys.tolist(),
                        "values": values.tolist(),
                        "scorer": "bogus",
                    }
                ).encode(),
            )
            assert code == 400 and "unknown scorer" in body["error"]
            code, body = _post_error(
                service.url + "/estimate",
                json.dumps({"left": {"keys": [1], "values": [1.0]}}).encode(),
            )
            assert code == 400 and "'right'" in body["error"]

    @pytest.mark.parametrize("path", ["/query", "/estimate"])
    def test_integer_beyond_float_range_gets_400(self, corpus, path):
        """A JSON integer no float can hold (``10**400``) in ``values``
        is a bad request naming the field, not a 500 from the float
        conversion."""
        mono, _, _, _ = corpus
        columns = {"keys": ["a", "b"], "values": [10**400, 1.0]}
        payload = (
            columns if path == "/query" else {"left": columns, "right": columns}
        )
        with QueryService(QuerySession.for_catalog(mono)) as service:
            code, body = _post_error(
                service.url + path, json.dumps(payload).encode()
            )
            assert code == 400 and "values" in body["error"]
            status, health = _get(service.url + "/healthz")
            assert status == 200 and health["status"] == "ok"

    @pytest.mark.parametrize(
        "path, fields, named",
        [
            ("/query", {"keys": [["a"]], "values": [1.0]}, "keys[0]"),
            ("/query", {"keys": ["a", {"b": 1}], "values": [1.0, 2.0]}, "keys[1]"),
            ("/query", {"keys": ["a", "b"], "values": [1.0, [2.0]]}, "values[1]"),
            ("/query", {"trace": "no"}, "trace"),
            ("/query", {"trace": 1}, "trace"),
            ("/query", {"name": 5}, "name"),
            ("/query", {"name": ["q"]}, "name"),
            (
                "/estimate",
                {"left": {"keys": [["a"], "b"], "values": [1.0, 2.0]}},
                "left.keys[0]",
            ),
        ],
    )
    def test_malformed_fields_get_400_naming_the_field(
        self, corpus, path, fields, named
    ):
        """A key that is a JSON array or object hashes to no key a client
        could mean, and a ``trace`` or ``name`` of the wrong JSON type
        would be read as something it does not say: each is a bad
        request whose error names the field."""
        mono, _, _, _ = corpus
        columns = {"keys": ["a", "b"], "values": [1.0, 2.0]}
        if path == "/query":
            payload = {**columns, **fields}
        else:
            payload = {"left": columns, "right": columns, **fields}
        with QueryService(QuerySession.for_catalog(mono)) as service:
            code, body = _post_error(
                service.url + path, json.dumps(payload).encode()
            )
        assert code == 400
        assert body["error"].startswith(named)

    def test_null_trace_and_name_are_absent(self, corpus):
        mono, _, _, (keys, values) = corpus
        columns = {"keys": keys.tolist(), "values": values.tolist()}
        with QueryService(QuerySession.for_catalog(mono)) as service:
            status, body = _post(
                service.url + "/query", {**columns, "trace": None, "name": None}
            )
        assert status == 200 and "trace" not in body

    def test_unknown_paths_get_404(self, corpus):
        mono, _, _, _ = corpus
        with QueryService(QuerySession.for_catalog(mono)) as service:
            try:
                urllib.request.urlopen(service.url + "/nope", timeout=30)
                raise AssertionError("expected 404")
            except urllib.error.HTTPError as exc:
                assert exc.code == 404
            code, body = _post_error(service.url + "/nope", b"{}")
            assert code == 404

    def test_stop_is_idempotent_and_frees_the_port(self, corpus):
        """``stop()`` is prompt (after a served query it returns well inside
        socketserver's default 0.5 s poll), idempotent, and frees the port."""
        mono, _, _, (keys, values) = corpus
        service = QueryService(QuerySession.for_catalog(mono))
        service.start()
        host, port = service.address
        payload = {"keys": keys.tolist(), "values": values.tolist()}
        assert _post(service.url + "/query", payload)[0] == 200
        started = time.perf_counter()
        service.stop()
        assert time.perf_counter() - started < 0.2
        service.stop()
        # The port is released: a new service can bind it immediately.
        rebound = QueryService(
            QuerySession.for_catalog(mono), host=host, port=port
        )
        rebound.start()
        rebound.stop()

    def test_stop_drains_a_query_in_flight(self, corpus, monkeypatch):
        """A query still executing when ``stop()`` is called is answered."""
        mono, _, _, (keys, values) = corpus
        session = QuerySession.for_catalog(mono)
        entered, submit = threading.Event(), session.submit
        monkeypatch.setattr(session, "submit", lambda *args, **kwargs: (
            entered.set(), time.sleep(0.3), submit(*args, **kwargs))[-1])
        service = QueryService(session).start()
        payload, answers = {"keys": keys.tolist(), "values": values.tolist()}, []
        client = threading.Thread(target=lambda: answers.append(
            _post(service.url + "/query", payload)))
        client.start()
        assert entered.wait(10)
        service.stop()
        client.join(10)
        assert [status for status, _ in answers] == [200] and answers[0][1]["ranked"]


# -- robustness ---------------------------------------------------------------


class TestRobustness:
    def test_unhashable_k_gets_400_and_service_keeps_serving(self, corpus):
        """`{"k": [5]}` must fail only that request. Before validation
        moved to the caller's thread, the unhashable k reached the
        coalescer's window grouping and killed the flusher thread —
        hanging every later request and deadlocking stop()'s drain."""
        mono, _, _, (keys, values) = corpus
        with QueryService(QuerySession.for_catalog(mono)) as service:
            url = service.url + "/query"
            code, body = _post_error(
                url,
                json.dumps(
                    {"keys": keys.tolist(), "values": values.tolist(),
                     "k": [5]}
                ).encode(),
            )
            assert code == 400
            code, body = _post_error(
                url,
                json.dumps(
                    {"keys": keys.tolist(), "values": values.tolist(),
                     "scorer": ["rp"]}
                ).encode(),
            )
            assert code == 400
            # The flusher survived: real queries still answer, and the
            # context-manager exit below still drains cleanly.
            status, body = _post(
                url, {"keys": keys.tolist(), "values": values.tolist()}
            )
            assert status == 200 and body["ranked"]
            status, health = _get(service.url + "/healthz")
            assert status == 200 and health["status"] == "ok"

    def test_negative_content_length_gets_400_without_reading(self, corpus):
        """`Content-Length: -1` reached `rfile.read(-1)`, which held the
        handler thread until the client hung up. The connection stays
        open here, so only a reply that does not wait for EOF arrives."""
        mono, _, _, _ = corpus
        with QueryService(QuerySession.for_catalog(mono)) as service:
            with socket.create_connection(service.address) as conn:
                conn.settimeout(10)
                conn.sendall(
                    b"POST /query HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: -1\r\n\r\n{}"
                )
                reply = b""
                while chunk := conn.recv(65536):  # the server closes after replying
                    reply += chunk
            assert reply.split(b" ", 2)[1] == b"400"
            assert b"Content-Length must not be negative" in reply
            status, health = _get(service.url + "/healthz")
            assert status == 200 and health["status"] == "ok"

    def test_stalled_body_gets_408_and_stop_returns(self, corpus, monkeypatch):
        """A client that sends its headers and part of a body, then
        nothing, holds a handler thread only until the socket timeout
        (patched down to 1 s): it is answered 408 and disconnected, and
        ``stop()`` returns while another such client is still connected
        (without the timeout the reply never comes and ``stop()`` waits
        for the client to hang up)."""
        from repro.serving import server as server_mod

        monkeypatch.setattr(server_mod, "READ_TIMEOUT_SECONDS", 1.0)
        partial = (
            b"POST /query HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b'Content-Length: 100\r\n\r\n{"keys": ['
        )

        def reply_of(conn) -> bytes:
            reply = b""
            while chunk := conn.recv(65536):  # the server closes after replying
                reply += chunk
            return reply

        mono, _, _, _ = corpus
        service = QueryService(QuerySession.for_catalog(mono)).start()
        stopper = threading.Thread(target=service.stop, daemon=True)
        clients = []

        def stalling_client():
            conn = socket.create_connection(service.address)
            clients.append(conn)
            conn.settimeout(10)
            conn.sendall(partial)
            return conn

        try:
            reply = reply_of(stalling_client())
            assert reply.split(b" ", 2)[1] == b"408"
            assert b"request body not received within 1 s" in reply

            stalled = stalling_client()
            time.sleep(0.3)  # accepted, its handler blocked in the body read
            stopper.start()
            stopper.join(10)
            assert not stopper.is_alive(), "stop() waited on a stalled client"
            assert reply_of(stalled).split(b" ", 2)[1] == b"408"
        finally:
            # Hanging up releases a handler still blocked in its read.
            for conn in clients:
                conn.close()
            if not stopper.is_alive():
                service.stop()  # idempotent

    @pytest.mark.parametrize("path", ["/query", "/estimate"])
    def test_oversized_content_length_gets_413_without_reading(self, corpus, path):
        """A declared body above ``MAX_BODY_BYTES`` is refused from the
        header alone: the client sends no byte of it and keeps the
        connection open, so only a reply that never waits on the body
        arrives. A body exactly at the limit is read as before."""
        from repro.serving.server import MAX_BODY_BYTES

        mono, _, _, _ = corpus
        with QueryService(QuerySession.for_catalog(mono)) as service:
            with socket.create_connection(service.address) as conn:
                conn.settimeout(10)
                conn.sendall(
                    f"POST {path} HTTP/1.1\r\nHost: test\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
                )
                reply = b""
                while chunk := conn.recv(65536):  # the server closes after replying
                    reply += chunk
            assert reply.split(b" ", 2)[1] == b"413"
            assert f"exceeds the {MAX_BODY_BYTES}-byte limit".encode() in reply
            body = b"{" + b" " * (MAX_BODY_BYTES - 2) + b"}"
            code, _ = _post_error(service.url + path, body)
            assert code == 400  # read in full: the empty object lacks its fields
            status, health = _get(service.url + "/healthz")
            assert status == 200 and health["status"] == "ok"

    def test_infinite_floats_reach_the_wire_as_strict_json(self, corpus):
        """A result carrying ±inf (legal hfd_ci_length on degenerate
        samples) must serialize as the json_float string sentinels,
        never as Python's bare Infinity literal that strict parsers
        reject."""
        from repro.index.engine import QueryResult
        from repro.ranking.ranker import RankedCandidate
        from repro.ranking.scoring import CandidateScores

        mono, _, _, _ = corpus
        degenerate = QueryResult(
            ranked=[
                RankedCandidate(
                    candidate_id="pair00",
                    score=0.5,
                    stats=CandidateScores(
                        r_pearson=0.5,
                        r_bootstrap=float("nan"),
                        sample_size=2,
                        sez_factor=0.0,
                        cib_factor=0.0,
                        hfd_ci_length=float("inf"),
                        containment_est=1.0,
                        containment_true=float("-inf"),
                    ),
                    true_correlation=float("nan"),
                )
            ],
            candidates_considered=1,
            retrieval_seconds=0.0,
            rerank_seconds=0.0,
        )
        with QueryService(QuerySession.for_catalog(mono)) as service:
            service.handle_query = lambda payload: degenerate.to_dict()
            request = urllib.request.Request(
                service.url + "/query", data=b"{}",
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                raw = response.read()

        def reject(literal):
            raise AssertionError(
                f"non-standard JSON literal {literal!r} on the wire"
            )

        body = json.loads(raw, parse_constant=reject)
        stats = body["ranked"][0]["stats"]
        assert stats["hfd_ci_length"] == "Infinity"
        assert stats["containment_true"] == "-Infinity"
        assert stats["r_bootstrap"] is None
        assert QueryResult.from_dict(body).to_dict() == degenerate.to_dict()

    def test_unsanitized_nonfinite_float_gets_500_not_invalid_json(
        self, corpus
    ):
        """Defense in depth: if a non-finite float ever escapes the
        json_float seam, the reply is a parseable 500, not a body the
        client cannot decode."""
        mono, _, _, _ = corpus
        with QueryService(QuerySession.for_catalog(mono)) as service:
            service.handle_query = lambda payload: {"leak": float("inf")}
            code, body = _post_error(service.url + "/query", b"{}")
        assert code == 500
        assert "non-finite" in body["error"]


# -- CLI integration ----------------------------------------------------------


class TestServeCli:
    def test_serve_lifecycle(self, corpus, tmp_path):
        """`repro-sketch serve`: start, answer a query over HTTP, drain
        on SIGTERM, exit 0."""
        mono, _, _, (keys, values) = corpus
        catalog_path = tmp_path / "catalog.arena"
        mono.save(catalog_path)
        # The checkout this test file lives in, whatever the working
        # directory: the server must run the code under test.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                str(catalog_path), "--port", "0", "-k", "4",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=root,
        )
        try:
            url = None
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if not line:
                    break
                if line.startswith("listening"):
                    url = line.split(":", 1)[1].strip()
                    break
            assert url is not None, process.stderr.read()
            status, body = _post(
                url + "/query",
                {"keys": keys.tolist(), "values": values.tolist()},
            )
            assert status == 200
            assert len(body["ranked"]) == 4
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
            assert process.returncode == 0, stderr
            assert "drained" in stdout
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

    def test_a_process_that_never_serves_does_not_load_the_http_stack(self):
        """``QueryService`` is a lazy attribute of ``repro.serving``."""
        code = (
            "import sys, repro, repro.index.engine, repro.serving.session\n"
            "assert 'http.server' not in sys.modules, 'http.server loaded'\n"
            "from repro.serving import QueryService\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert done.returncode == 0, done.stderr
