"""The ``replay-min`` measurement protocol.

A workload is a fixed, seeded list of operations. The list is replayed
for ``R`` rounds in order, one ``time.perf_counter()`` pair around each
operation, and operation ``i``'s **clean time** is the minimum of its
``R`` samples (Chen & Revels, "Robust benchmarking in noisy
environments", arXiv:1608.04295: on a shared host the noise is additive
and one-sided, so the minimum is the estimator that repeats). Every
reported time is derived from clean times; none is a single shot and
none is a whole-run wall clock. The whole-run numbers are kept as the
ungated ``raw.*`` metrics so a cost the minimum filters out (a GC pause,
timer-driven work) stays visible.

Replaying buys a correctness check for free: operation ``i`` must
produce the same result digest in every round.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from contextlib import contextmanager

import numpy as np

#: A yardstick sample above this multiple of the run's fastest sample is
#: counted as taken in the host's slow state.
SLOW_STATE_FACTOR = 1.25


class CheckFailed(Exception):
    """An operation returned, but its result is wrong."""


def digest(*parts: object) -> str:
    """Stable short digest of a result's identifying fields."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


class Replay:
    """Per-operation samples of one replayed operation list.

    ``times[i]`` holds operation ``i``'s wall seconds, one entry per
    round it completed in. An operation that raised, or whose digest
    differed from its first round's, is recorded in ``failed`` (with the
    first traceback kept for the report) and stays failed.
    """

    def __init__(self, n_ops: int) -> None:
        self.times: list[list[float]] = [[] for _ in range(n_ops)]
        self.digests: list[str | None] = [None] * n_ops
        self.failed: dict[int, str] = {}
        self.round_walls: list[float] = []

    def __len__(self) -> int:
        return len(self.times)

    def fail(self, i: int, reason: str) -> None:
        self.failed.setdefault(i, reason)

    def run_round(self, ops, call, digest_of, after=None) -> list:
        """Replay ``ops`` once: ``call(op)`` timed, ``digest_of(out)`` not.

        ``digest_of`` may raise :class:`CheckFailed` to fail the
        operation. ``after(i, op)``, if given, runs untimed after each
        operation (the traced run's side probes). Returns the round's
        outputs (``None`` where the call raised).
        """
        outputs = []
        start = time.perf_counter()
        aside = 0.0  # spent in ``after``: not part of the round's wall
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                out = call(op)
            except Exception:  # noqa: BLE001 - a failed op is a counted outcome
                self.fail(i, traceback.format_exc(limit=4))
                outputs.append(None)
                continue
            t1 = time.perf_counter()
            self.times[i].append(t1 - t0)
            try:
                self.check(i, digest_of(out))
            except CheckFailed as exc:
                self.fail(i, f"op {i}: {exc}")
            outputs.append(out)
            if after is not None:
                t2 = time.perf_counter()
                after(i, op)
                aside += time.perf_counter() - t2
        self.round_walls.append(time.perf_counter() - start - aside)
        return outputs

    def check(self, i: int, op_digest: str) -> None:
        if self.digests[i] is None:
            self.digests[i] = op_digest
        elif self.digests[i] != op_digest:
            self.fail(
                i,
                f"op {i}: digest {op_digest} differs from first round's "
                f"{self.digests[i]}",
            )

    def to_dict(self) -> dict:
        return {
            "times": self.times,
            "failed": {str(i): why for i, why in self.failed.items()},
            "round_walls": self.round_walls,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Replay":
        replay = cls(len(payload["times"]))
        replay.times = payload["times"]
        replay.failed = {int(i): why for i, why in payload["failed"].items()}
        replay.round_walls = payload["round_walls"]
        return replay

    # -- derived numbers -----------------------------------------------------

    def clean(self) -> np.ndarray:
        """Clean seconds per operation (NaN for one that never completed)."""
        return np.asarray(
            [min(samples) if samples else np.nan for samples in self.times]
        )

    def summary(self, units: float) -> dict[str, float]:
        """The three replay-min timing metrics; ``units`` is the work
        one pass over the list completes (queries, requests, rows)."""
        clean = self.clean()
        clean = clean[~np.isnan(clean)]
        return {
            "latency_p50_ms": float(np.percentile(clean, 50)) * 1e3,
            "latency_p90_ms": float(np.percentile(clean, 90)) * 1e3,
            "throughput_per_s": units / float(clean.sum()),
        }

    def raw_summary(self, units: float) -> dict[str, float]:
        """The same three numbers taken over every sample and the round
        wall clocks — what a whole-run benchmark would have reported."""
        samples = np.asarray([t for row in self.times for t in row])
        walls = np.asarray(self.round_walls)
        return {
            "raw.latency_p50_ms": float(np.percentile(samples, 50)) * 1e3,
            "raw.latency_p90_ms": float(np.percentile(samples, 90)) * 1e3,
            "raw.throughput_per_s": units * len(walls) / float(walls.sum()),
            "raw.round_wall_s_min": float(walls.min()),
            "raw.round_wall_s_max": float(walls.max()),
        }


class SideProbes:
    """Named calls replayed right after each end-to-end operation.

    The traced run compares paths (staged against end to end, the engine
    against the session in front of it). On a host whose speed shifts
    for seconds at a time, two series measured one after the other
    differ by the host, not by the paths; alternating them operation by
    operation inside the same rounds makes every series see the same
    host. Each call takes ``(i, op)``; ``clean[name]`` is its replay-min
    seconds per operation.
    """

    def __init__(self, n_ops: int, calls: dict) -> None:
        self.calls = calls
        self.clean = {name: np.full(n_ops, np.inf) for name in calls}

    def sample(self, i: int, op) -> None:
        for name, call in self.calls.items():
            t0 = time.perf_counter()
            call(i, op)
            elapsed = time.perf_counter() - t0
            if elapsed < self.clean[name][i]:
                self.clean[name][i] = elapsed


def median_ms(seconds) -> float:
    return float(np.median(seconds)) * 1e3


def peak_rss_kb(pid: int | str = "self") -> int:
    """``VmHWM`` of a process: its peak resident set so far."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class SetupSteps:
    """Replay-min over set-up passes.

    Each pass records the same named fine-grained steps (one table, one
    load, one warm call, one cold op); ``seconds()`` is the sum over
    steps of the step's minimum across passes. Steps are kept short
    because a long step never lands wholly in the host's fast state.
    """

    def __init__(self, steps: dict[str, list[float]] | None = None) -> None:
        self.steps = {} if steps is None else steps

    @contextmanager
    def step(self, name: str):
        t0 = time.perf_counter()
        yield
        self.steps.setdefault(name, []).append(time.perf_counter() - t0)

    def seconds(self) -> float:
        return float(sum(min(samples) for samples in self.steps.values()))

    def step_ms(self, prefix: str) -> float:
        """Summed minima of the steps whose name starts with ``prefix``."""
        return 1e3 * float(
            sum(
                min(samples)
                for name, samples in self.steps.items()
                if name.startswith(prefix)
            )
        )


class Yardstick:
    """Host-noise gauge: one fixed pure-Python + NumPy unit of work,
    timed between rounds. It explains a bad run; it never rescales a
    metric."""

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).standard_normal(20_000)
        self.samples: list[float] = []

    def tick(self, repeats: int = 4) -> None:
        for _ in range(repeats):
            t0 = time.perf_counter()
            acc = 0
            for i in range(2000):
                acc += i * i % 7
            np.cumsum(np.sort(self._data))
            self.samples.append(time.perf_counter() - t0)


def host_summary(yardstick_samples: list[float]) -> dict[str, float]:
    samples = np.asarray(yardstick_samples)
    fastest = float(samples.min())
    return {
        "host.yardstick_ms_min": fastest * 1e3,
        "host.slow_state_share": float(
            np.mean(samples > SLOW_STATE_FACTOR * fastest)
        ),
    }


class SpanRecorder:
    """In-memory span log of the traced run, written out when it ends.

    A span is ``{name, layer, op, round, start, end, parent}``; ``parent``
    is the index of the enclosing span (``None`` for an operation's root).
    A layer's self time is its span minus the part its children cover.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = -1
        self.round = -1

    @contextmanager
    def span(self, name: str, layer: str):
        index = len(self.spans)
        record = {
            "name": name,
            "layer": layer,
            "op": self.op,
            "round": self.round,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")

    def clean_durations(self, name: str, n_ops: int) -> np.ndarray:
        """Each operation's clean whole duration of the span ``name``."""
        clean = np.full(n_ops, np.inf)
        for s in self.spans:
            if s["name"] == name:
                clean[s["op"]] = min(clean[s["op"]], s["end"] - s["start"])
        return clean

    def self_times(self) -> list[float]:
        """Self seconds per span: duration minus its children's."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def clean_by_name(self, n_ops: int) -> dict[str, np.ndarray]:
        """Per span name, each operation's clean (min over rounds) self
        seconds; an operation that never entered the span reads 0.

        A span name entered several times inside one operation (one
        assemble per query of a batch) is summed within the round first.
        """
        per_round: dict[tuple[str, int, int], float] = {}
        for s, own in zip(self.spans, self.self_times()):
            key = (s["name"], s["op"], s["round"])
            per_round[key] = per_round.get(key, 0.0) + own
        clean: dict[str, np.ndarray] = {}
        for (name, op, _), seconds in per_round.items():
            row = clean.setdefault(name, np.full(n_ops, np.inf))
            row[op] = min(row[op], seconds)
        for row in clean.values():
            row[np.isinf(row)] = 0.0
        return clean
