"""Trace recorder: span schema, id minting, JSON wire safety.

The heavier end-to-end properties (spans across shard fan-out, the
coalescer window) live in
``test_serving_observability.py``; this file pins the recorder itself.
"""

import json
import pickle
import time

from repro.obs import Trace, new_trace_id


class TestTraceIds:
    def test_ids_are_16_hex_chars_and_unique(self):
        ids = {new_trace_id() for _ in range(256)}
        assert len(ids) == 256
        for trace_id in ids:
            assert len(trace_id) == 16
            int(trace_id, 16)  # raises if not hex

    def test_explicit_id_propagates(self):
        trace = Trace("deadbeefdeadbeef")
        assert trace.to_dict()["trace_id"] == "deadbeefdeadbeef"


class TestSpans:
    def test_add_records_relative_milliseconds(self):
        origin = time.perf_counter()
        trace = Trace(origin=origin)
        trace.add("phase", origin + 0.001, origin + 0.003)
        (span,) = trace.to_dict()["spans"]
        assert span["name"] == "phase"
        assert abs(span["start_ms"] - 1.0) < 1e-6
        assert abs(span["duration_ms"] - 2.0) < 1e-6
        assert "parent" not in span
        assert "meta" not in span

    def test_parent_and_meta_only_when_present(self):
        trace = Trace(origin=0.0)
        trace.add("child", 0.0, 0.001, parent="retrieval", shard=2)
        (span,) = trace.spans
        assert span["parent"] == "retrieval"
        assert span["meta"] == {"shard": 2}

    def test_span_contextmanager_records_on_raise(self):
        trace = Trace()
        try:
            with trace.span("risky"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert [s["name"] for s in trace.spans] == ["risky"]
        assert trace.spans[0]["duration_ms"] >= 0.0

    def test_negative_start_for_pre_origin_work(self):
        """queue_wait predates the trace origin; its start is negative."""
        origin = time.perf_counter()
        trace = Trace(origin=origin)
        trace.add("queue_wait", origin - 0.005, origin)
        (span,) = trace.spans
        assert span["start_ms"] < 0
        assert abs(span["duration_ms"] - 5.0) < 1e-6


class TestWireSafety:
    def test_to_dict_is_strict_json(self):
        trace = Trace()
        with trace.span("a", detail="x"):
            pass
        trace.add("b", 0.0, 0.001, parent="a", shard=0, status="ok")
        encoded = json.dumps(trace.to_dict(), allow_nan=False)
        decoded = json.loads(encoded)
        assert decoded["trace_id"] == trace.trace_id
        assert [s["name"] for s in decoded["spans"]] == ["a", "b"]

    def test_trace_pickles_across_fork_boundary(self):
        """A Trace pickled into another process keeps its id, origin
        and timeline."""
        trace = Trace()
        trace.add("before", trace.origin, trace.origin + 0.001)
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.trace_id == trace.trace_id
        assert clone.origin == trace.origin
        # Spans added on the far side share the parent's timeline.
        clone.add("after", clone.origin + 0.002, clone.origin + 0.004)
        assert clone.spans[1]["start_ms"] > clone.spans[0]["start_ms"]


class TestPhaseTotals:
    def test_children_excluded_and_repeats_summed(self):
        trace = Trace(origin=0.0)
        trace.add("retrieval", 0.0, 0.002)
        trace.add("shard_probe", 0.0, 0.001, parent="retrieval", shard=0)
        trace.add("merge", 0.002, 0.003)
        trace.add("merge", 0.003, 0.005)
        totals = Trace.phase_totals(trace.to_dict())
        assert set(totals) == {"retrieval", "merge"}
        assert abs(totals["retrieval"] - 2.0) < 1e-6
        assert abs(totals["merge"] - 3.0) < 1e-6

    def test_empty_block(self):
        assert Trace.phase_totals({"trace_id": "x", "spans": []}) == {}
