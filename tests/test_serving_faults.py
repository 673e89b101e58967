"""Fault-injection matrix for the resilient serving stack.

Crosses fault kind (delay / exception / worker-kill / truncated-snapshot
/ bad-checksum / fsync) with every surface that must degrade gracefully
(router single + batch, worker pools, catalog and manifest load), and
pins the two contracts everything hangs on:

* **fault-free parity** — with no plan installed (and even with the
  resilience knobs engaged), results are bit-identical to the plain
  pre-resilience path;
* **survivors oracle** — a partial answer equals the exact answer of a
  monolithic engine over the surviving shards' sketches, whenever
  ``retrieval_depth`` does not truncate (it never does at this scale).

Plan mechanics (sites, matchers, budgets, seeds) are covered at the
unit level at the bottom.
"""

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.index.engine import JoinCorrelationEngine
from repro.index.snapshot import (
    QUARANTINE_SUFFIX,
    load_snapshot,
    verify_snapshot,
)
from repro.serving import (
    DeadlineExceeded,
    FaultPlan,
    InjectedFault,
    QueryWorkerPool,
    ShardRouter,
    ShardUnavailable,
    ShardWorkerPool,
    ShardedCatalog,
    injected,
    install,
    uninstall,
)
from repro.serving import faults as faults_mod
from repro.serving.faults import KILL_EXIT_STATUS, active_plan, maybe_fire

SKETCH_SIZE = 32
N_SHARDS = 3
#: Injected straggler delay vs. the query deadline: the healthy shards
#: of this tiny corpus probe in well under a millisecond, so the gap
#: keeps every outcome deterministic on any machine.
DELAY_MS = 200.0
DEADLINE_MS = 80.0


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    uninstall()
    yield
    uninstall()


def _build_catalog() -> ShardedCatalog:
    rng = np.random.default_rng(3)
    hasher = KeyHasher()
    catalog = ShardedCatalog(N_SHARDS, sketch_size=SKETCH_SIZE, hasher=hasher)
    universe = [f"k{i}" for i in range(300)]
    for i in range(12):
        picked = rng.choice(len(universe), size=150, replace=False)
        sid = f"p{i:02d}"
        catalog.add_sketch(
            sid,
            CorrelationSketch.from_columns(
                [universe[j] for j in sorted(picked)],
                rng.standard_normal(150),
                SKETCH_SIZE,
                hasher=hasher,
                name=sid,
            ),
        )
    return catalog


@pytest.fixture(scope="module")
def catalog():
    return _build_catalog()


@pytest.fixture(scope="module")
def queries(catalog):
    return [catalog.get(sid) for sid in sorted(catalog)[:4]]


def _ranking(result):
    return [(e.candidate_id, e.score) for e in result.ranked]


def _survivor_oracle(catalog, failed_shards):
    """A monolithic engine over every sketch outside ``failed_shards``."""
    mono = SketchCatalog(sketch_size=SKETCH_SIZE, hasher=catalog.hasher)
    for sid in sorted(catalog):
        if catalog.owner_of(sid) not in failed_shards:
            mono.add_sketch(sid, catalog.get(sid))
    return JoinCorrelationEngine(mono)


# -- fault-free parity --------------------------------------------------------


@pytest.mark.parametrize("workers", [None, 3])
@pytest.mark.parametrize("scorer", ["rp_cih", "rb_cib"])
def test_resilience_knobs_are_bit_identical_without_faults(
    catalog, queries, workers, scorer
):
    """deadline_ms + on_shard_error="partial" with no plan installed
    change nothing: same ids, scores, order as the plain call."""
    with ShardRouter(catalog, workers=workers) as router:
        plain = router.query_batch(queries, k=5, scorer=scorer)
        guarded = router.query_batch(
            queries, k=5, scorer=scorer,
            deadline_ms=60_000, on_shard_error="partial",
        )
    for p, g in zip(plain, guarded):
        assert _ranking(p) == _ranking(g)
        assert (g.shards_probed, g.shards_failed, g.degraded) == (
            N_SHARDS, 0, False,
        )


def test_fault_module_import_is_invisible_to_clean_runs(catalog, queries):
    """An installed-then-removed plan leaves no residue: the next query
    runs the plain path and reports an undegraded result."""
    install({"shard_probe": {"shard": 0, "kind": "exception"}})
    uninstall()
    assert active_plan() is None
    with ShardRouter(catalog) as router:
        result = router.query(queries[0], k=5)
    assert not result.degraded and result.shards_failed == 0


# -- delay faults × deadline --------------------------------------------------


@pytest.mark.parametrize("workers", [None, 3])
def test_delay_fault_with_deadline_partial(catalog, queries, workers):
    """A straggler shard misses the deadline and is dropped; the answer
    matches the survivors oracle bit for bit.

    Threaded fan-out loses exactly the slow shard; the sequential
    fan-out also forfeits shards *behind* the straggler in probe order
    (the budget is wall-clock, and a sequential straggler consumes it
    for everyone queued after it).
    """
    with ShardRouter(catalog, workers=workers) as router:
        with injected(
            {"shard_probe": {"shard": 1, "kind": "delay", "ms": DELAY_MS}}
        ) as plan:
            got = router.query_batch(
                queries, k=5,
                deadline_ms=DEADLINE_MS, on_shard_error="partial",
            )
    assert plan.fired_count == 1
    expected_failed = {1} if workers else {1, 2}
    assert all(r.shards_failed == len(expected_failed) for r in got)
    assert all(r.degraded for r in got)
    want = _survivor_oracle(catalog, expected_failed).query_batch(queries, k=5)
    for g, w in zip(got, want):
        assert _ranking(g) == _ranking(w)


def test_delay_fault_with_deadline_raise(catalog, queries):
    with ShardRouter(catalog, workers=3) as router:
        with injected(
            {"shard_probe": {"shard": 1, "kind": "delay", "ms": DELAY_MS}}
        ):
            with pytest.raises(DeadlineExceeded):
                router.query(
                    queries[0], k=5,
                    deadline_ms=DEADLINE_MS, on_shard_error="raise",
                )


# -- exception faults ---------------------------------------------------------


@pytest.mark.parametrize("site", ["shard_probe", "shard_assemble"])
@pytest.mark.parametrize("workers", [None, 3])
def test_exception_fault_partial_drops_one_shard(
    catalog, queries, site, workers
):
    """A raising shard (at either scatter phase) degrades the answer to
    the survivors oracle, single and batch surface alike."""
    with ShardRouter(catalog, workers=workers) as router:
        with injected({site: {"shard": 2, "kind": "exception"}}):
            single = router.query(queries[0], k=5, on_shard_error="partial")
        with injected({site: {"shard": 2, "kind": "exception"}}):
            [batched, *_] = router.query_batch(
                queries, k=5, on_shard_error="partial"
            )
    oracle = _survivor_oracle(catalog, {2})
    want = oracle.query(queries[0], k=5)
    for got in (single, batched):
        assert (got.shards_probed, got.shards_failed, got.degraded) == (
            N_SHARDS, 1, True,
        )
        assert _ranking(got) == _ranking(want)


def test_exception_fault_raise_policy_propagates(catalog, queries):
    with ShardRouter(catalog) as router:
        with injected({"shard_probe": {"shard": 0, "kind": "exception"}}):
            with pytest.raises(InjectedFault, match="shard_probe"):
                router.query(queries[0], k=5)


def test_all_shards_failing_yields_empty_degraded_result(catalog, queries):
    with ShardRouter(catalog) as router:
        with injected(
            {"shard_probe": {"kind": "exception", "times": None}}
        ):
            result = router.query(queries[0], k=5, on_shard_error="partial")
    assert result.shards_failed == N_SHARDS
    assert result.degraded and result.ranked == []


def test_router_validates_resilience_arguments(catalog, queries):
    with ShardRouter(catalog) as router:
        with pytest.raises(ValueError, match="deadline_ms"):
            router.query(queries[0], deadline_ms=0)
        with pytest.raises(ValueError, match="on_shard_error"):
            router.query_batch(queries, on_shard_error="retry")


# -- worker-kill faults -------------------------------------------------------


def _require_fork(router):
    if not QueryWorkerPool(router, workers=2).parallel:
        pytest.skip("fork start method unavailable")


def test_worker_kill_respawns_and_serves_next_batches(catalog, queries):
    """A killed forked worker breaks the pool once: the chunk is
    re-dispatched after respawn, no query is lost or duplicated, and
    later batches are served by the respawned pool."""
    with ShardRouter(catalog) as router:
        _require_fork(router)
        want = [_ranking(r) for r in router.query_batch(queries, k=5)]
        install({"worker_chunk": {"chunk": 0, "kind": "kill"}})
        with QueryWorkerPool(router, workers=2) as pool:
            got = pool.query_batch(queries, k=5)
            assert [_ranking(r) for r in got] == want
            assert pool.respawns == 1
            assert not pool.sequential_fallback
            assert active_plan().fired_count == 1
            again = pool.query_batch(queries, k=5)
            assert [_ranking(r) for r in again] == want
            assert pool.respawns == 1  # no further deaths, no churn


def test_unkillable_workload_falls_back_to_sequential(catalog, queries):
    """When every respawn dies again, supervision gives up after the cap
    and the batch completes on the sequential router path."""
    with ShardRouter(catalog) as router:
        _require_fork(router)
        want = [_ranking(r) for r in router.query_batch(queries, k=5)]
        install({"worker_chunk": {"kind": "kill", "times": None}})
        with QueryWorkerPool(router, workers=2) as pool:
            pool.RESPAWN_BACKOFF_BASE = 0.01  # keep the test fast
            got = pool.query_batch(queries, k=5)
            assert [_ranking(r) for r in got] == want
            assert pool.sequential_fallback
            assert not pool.parallel  # sticky for the pool's life
            assert pool.respawns == pool.MAX_RESPAWN_FAILURES
            uninstall()
            again = pool.query_batch(queries, k=5)  # sequential, still right
            assert [_ranking(r) for r in again] == want


def test_worker_exception_propagates_to_caller(catalog, queries):
    """A task-level error in a worker (not a death) is a real failure:
    it propagates instead of being retried or absorbed."""
    with ShardRouter(catalog) as router:
        _require_fork(router)
        install({"worker_chunk": {"chunk": 1, "kind": "exception"}})
        with QueryWorkerPool(router, workers=2) as pool:
            with pytest.raises(InjectedFault, match="worker_chunk"):
                pool.query_batch(queries, k=5)
            assert pool.respawns == 0


def test_forked_pool_survives_a_warm_threaded_router(catalog, queries):
    """Fork-safety regression: probing through the router's *thread*
    pool before the process pool forks used to deadlock — the children
    inherited an executor whose threads did not survive the fork. The
    pool now resets the thread executor pre-fork, so both sides respawn
    threads lazily and keep serving."""
    with ShardRouter(catalog, workers=3) as router:
        _require_fork(router)
        want = [_ranking(r) for r in router.query_batch(queries, k=5)]
        with QueryWorkerPool(router, workers=2) as pool:
            got = pool.query_batch(queries, k=5)
        assert [_ranking(r) for r in got] == want
        # ...and the parent's thread fan-out still works after the fork.
        after = router.query_batch(queries, k=5)
        assert [_ranking(r) for r in after] == want


def test_query_pool_forwards_resilience_kwargs(catalog, queries):
    """deadline/partial forwarded through the pool reach the router in
    each worker; fault-free results stay bit-identical."""
    with ShardRouter(catalog) as router:
        want = [_ranking(r) for r in router.query_batch(queries, k=5)]
        with QueryWorkerPool(router, workers=2) as pool:
            got = pool.query_batch(
                queries, k=5, deadline_ms=60_000, on_shard_error="partial"
            )
        assert [_ranking(r) for r in got] == want
        assert all(not r.degraded for r in got)


# -- snapshot corruption: truncation, checksums, quarantine -------------------


def _saved_dir(tmp_path):
    catalog = _build_catalog()
    directory = tmp_path / "catalog-arena"
    catalog.save(directory)
    return catalog, directory


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


@pytest.mark.parametrize("layout", ["arena"])
def test_truncated_shard_quarantined_and_served_partial(tmp_path, layout):
    """The ISSUE's acceptance path: a truncated shard snapshot is moved
    to *.quarantined, the manifest load succeeds on the remaining
    shards, and partial queries serve the survivors oracle."""
    built, directory = _saved_dir(tmp_path)
    shard_file = directory / f"shard-0001.{layout}"
    _truncate(shard_file)

    with pytest.raises((ValueError, Exception)):
        ShardedCatalog.load(directory, lazy=False)  # default policy fails

    loaded = ShardedCatalog.load(
        directory, lazy=False, on_corruption="quarantine"
    )
    assert (directory / (shard_file.name + QUARANTINE_SUFFIX)).exists()
    assert not shard_file.exists()
    assert [e["shard"] for e in loaded.quarantine_events] == [1]
    with pytest.raises(ShardUnavailable):
        loaded.shard(1)  # sticky

    query = built.get("p00")
    with ShardRouter(loaded) as router:
        result = router.query(query, k=5, on_shard_error="partial")
    assert (result.shards_failed, result.degraded) == (1, True)
    want = _survivor_oracle(built, {1}).query(query, k=5)
    assert _ranking(result) == _ranking(want)


def test_catalog_fallback_chain_arena_to_npz(tmp_path):
    """The chain is arena → json: a corrupt .arena recovers from its
    healthy .json sibling, reporting exactly what was skipped. The link
    that ran through a .npz sibling went with the format — such a file
    is neither tried nor touched."""
    catalog = _build_catalog()
    mono = SketchCatalog(sketch_size=SKETCH_SIZE, hasher=catalog.hasher)
    for sid in sorted(catalog):
        mono.add_sketch(sid, catalog.get(sid))
    mono.save(tmp_path / "c.json")
    mono.save(tmp_path / "c.arena")
    (tmp_path / "c.npz").write_bytes(b"PK\x03\x04 a retired snapshot")
    _truncate(tmp_path / "c.arena")

    recovered = SketchCatalog.load(
        tmp_path / "c.arena", on_corruption="quarantine"
    )
    assert sorted(recovered) == sorted(mono)
    recovery = recovered.load_recovery
    assert recovery["loaded_from"].endswith("c.json")
    assert [p.split("/")[-1] for p in recovery["quarantined"]] == [
        "c.arena" + QUARANTINE_SUFFIX
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.arena" + QUARANTINE_SUFFIX, "c.json", "c.npz"
    ]
    # and the recovered catalog answers queries like the original
    want = JoinCorrelationEngine(mono).query(catalog.get("p00"), k=5)
    got = JoinCorrelationEngine(recovered).query(catalog.get("p00"), k=5)
    assert _ranking(got) == _ranking(want)


@pytest.mark.parametrize("layout", ["arena"])
def test_checksum_detects_payload_bit_rot(tmp_path, layout):
    catalog = _build_catalog()
    mono = SketchCatalog(sketch_size=SKETCH_SIZE, hasher=catalog.hasher)
    mono.add_sketch("x", catalog.get("p00"))
    path = tmp_path / f"c.{layout}"
    mono.save(path)
    assert verify_snapshot(path) is True
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF  # flip payload bits, keep the container parseable
    path.write_bytes(bytes(raw))
    assert verify_snapshot(path) is False
    assert sorted(load_snapshot(path)) == ["x"]  # load never checksums


def test_pre_checksum_snapshots_load_unchecked(tmp_path):
    """Arenas written before checksums existed load fine and verify to
    None — the compatibility contract (within the one generation)."""
    from repro.index.arena import ArenaReader

    catalog = _build_catalog()
    mono = SketchCatalog(sketch_size=SKETCH_SIZE, hasher=catalog.hasher)
    mono.add_sketch("x", catalog.get("p00"))
    arena_path = tmp_path / "old.arena"
    mono.save(arena_path)
    reader = ArenaReader(arena_path)
    reader.meta.pop("payload_crc32")
    assert reader.verify_payload() is None  # pre-checksum header → unchecked


def test_snapshot_read_fault_exercises_quarantine(tmp_path):
    """An injected read fault walks exactly the real corruption path:
    the (healthy) file is quarantined and the shard marked unavailable."""
    _, directory = _saved_dir(tmp_path)
    install(
        {"snapshot_read": {"path": "shard-0002", "kind": "exception"}}
    )
    loaded = ShardedCatalog.load(
        directory, lazy=False, on_corruption="quarantine"
    )
    assert (directory / ("shard-0002.arena" + QUARANTINE_SUFFIX)).exists()
    with pytest.raises(ShardUnavailable):
        loaded.shard(2)
    assert loaded.shard(0) is not None  # other shards unaffected


# -- durability (satellite): fsync faults -------------------------------------


def test_fsync_fault_leaves_original_intact(tmp_path):
    from repro.index.arena import atomic_write_text

    path = tmp_path / "c.json"
    atomic_write_text(path, "original")
    for target in ("file",):
        with injected({"fsync": {"kind": "exception", "target": target}}):
            with pytest.raises(InjectedFault):
                atomic_write_text(path, "new")
        assert path.read_text() == "original"
        assert [f.name for f in tmp_path.iterdir()] == ["c.json"]  # no temp leak


def test_fsync_sites_fire_in_order(tmp_path):
    from repro.index.arena import atomic_write_text

    with injected(
        {"fsync": {"kind": "delay", "ms": 1, "times": None}}
    ) as plan:
        atomic_write_text(tmp_path / "c.json", "payload")
    assert [ctx["target"] for _, ctx in plan.fired_log] == ["file", "dir"]


# -- ShardWorkerPool semantics (satellite) ------------------------------------


def test_shard_pool_map_raises_lowest_index_error():
    """Two failing tasks, the higher-index one failing *first* in wall
    time: map must still raise the lowest-index task's error."""
    import time as time_mod

    def task(i):
        if i == 1:
            time_mod.sleep(0.05)
            raise KeyError("slow-low")
        if i == 3:
            raise RuntimeError("fast-high")
        return i

    with ShardWorkerPool(4) as pool:
        with pytest.raises(KeyError, match="slow-low"):
            pool.map(task, range(5))
    with pytest.raises(KeyError, match="slow-low"):
        ShardWorkerPool(None).map(task, range(5))


@pytest.mark.parametrize("workers", [None, 3])
def test_map_supervised_reports_per_item_outcomes(workers):
    def task(i):
        if i == 1:
            raise RuntimeError("boom")
        return i * 10

    with ShardWorkerPool(workers) as pool:
        results, errors = pool.map_supervised(task, range(3))
    assert results == [0, None, 20]
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], RuntimeError)


@pytest.mark.parametrize("workers", [None, 3])
def test_map_supervised_deadline_rejects_late_completions(workers):
    import time as time_mod

    def task(i):
        if i == 1:
            time_mod.sleep(0.2)
        return i

    with ShardWorkerPool(workers) as pool:
        results, errors = pool.map_supervised(
            task, range(3), deadline_s=0.08
        )
    assert results[0] == 0 and errors[0] is None
    assert results[1] is None and isinstance(errors[1], DeadlineExceeded)
    if workers:  # threaded: the fast item 2 beat the deadline in parallel
        assert results[2] == 2
    else:  # sequential: the straggler consumed the budget for item 2 too
        assert isinstance(errors[2], DeadlineExceeded)


# -- plan mechanics -----------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ValueError, match="kind"):
        FaultPlan({"shard_probe": {"ms": 5}})
    with pytest.raises(ValueError, match="site"):
        FaultPlan({"no_such_site": {"kind": "delay", "ms": 5}})
    with pytest.raises(ValueError, match="kill"):
        FaultPlan({"shard_probe": {"kind": "kill"}})
    with pytest.raises(ValueError, match="ms"):
        FaultPlan({"shard_probe": {"kind": "delay"}})
    with pytest.raises(ValueError, match="probability"):
        FaultPlan({"shard_probe": {"kind": "exception", "probability": 1.5}})
    with pytest.raises(ValueError, match="times"):
        FaultPlan({"shard_probe": {"kind": "exception", "times": 0}})


def test_rule_budget_and_matchers():
    plan = install(
        {"shard_probe": {"shard": 1, "kind": "exception", "times": 2}}
    )
    maybe_fire("shard_probe", shard=0)  # no match, no firing
    for _ in range(2):
        with pytest.raises(InjectedFault):
            maybe_fire("shard_probe", shard=1)
    maybe_fire("shard_probe", shard=1)  # budget exhausted: silent
    assert plan.fired_count == 2
    assert [ctx["shard"] for _, ctx in plan.fired_log] == [1, 1]


def test_path_matcher_is_substring():
    plan = install(
        {"snapshot_read": {"path": "shard-0001", "kind": "exception"}}
    )
    maybe_fire("snapshot_read", path="/tmp/x/shard-0002.arena")
    with pytest.raises(InjectedFault):
        maybe_fire("snapshot_read", path="/tmp/x/shard-0001.arena")
    assert plan.fired_count == 1


def test_probability_stream_is_seeded():
    def fired_pattern(seed):
        plan = FaultPlan(
            {
                "shard_probe": {
                    "kind": "delay", "ms": 0.001,
                    "probability": 0.5, "times": None,
                }
            },
            seed=seed,
        )
        install(plan)
        pattern = []
        for _ in range(16):
            before = plan.fired_count
            maybe_fire("shard_probe", shard=0)
            pattern.append(plan.fired_count > before)
        uninstall()
        return pattern

    assert fired_pattern(11) == fired_pattern(11)
    assert fired_pattern(11) != fired_pattern(12)


def test_seed_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SEED", "41")
    assert FaultPlan({}).seed == 41
    monkeypatch.delenv("REPRO_FAULT_SEED")
    assert FaultPlan({}).seed == 7


def test_kill_exit_status_constant_is_distinctive():
    assert KILL_EXIT_STATUS == 17
    assert issubclass(InjectedFault, ValueError)
    assert faults_mod.active_plan() is None


# -- the ISSUE acceptance scenario, end to end --------------------------------


def test_acceptance_one_shard_timeout_plus_one_worker_kill(catalog, queries):
    """One plan injecting a 1-shard timeout and a 1-worker kill:
    query_batch(on_shard_error="partial") serves the survivors with
    degraded=True and correct shards_failed, and the pool respawns and
    serves subsequent batches."""
    with ShardRouter(catalog, workers=N_SHARDS) as router:
        _require_fork(router)
        # The shard-1 straggler is persistent ("times": None): a one-shot
        # delay can be consumed by a chunk whose in-flight result the
        # worker kill then discards (BrokenProcessPool abandons every
        # pending future), making the re-dispatched run fault-free.  A
        # hung shard keeps stalling across the respawn, so every chunk
        # deterministically sees the timeout.
        install(
            {
                "shard_probe": {
                    "shard": 1, "kind": "delay", "ms": DELAY_MS,
                    "times": None,
                },
                "worker_chunk": {"chunk": 0, "kind": "kill"},
            }
        )
        with QueryWorkerPool(router, workers=2) as pool:
            got = pool.query_batch(
                queries, k=5,
                deadline_ms=DEADLINE_MS, on_shard_error="partial",
            )
            assert pool.respawns == 1
            assert active_plan().fired_count >= 2  # kill + >=1 timeout
            assert len(got) == len(queries)
            assert all(r.degraded and r.shards_failed == 1 for r in got)
            oracle = _survivor_oracle(catalog, {1})
            want_part = oracle.query_batch(queries, k=5)
            for g, part in zip(got, want_part):
                assert _ranking(g) == _ranking(part)
            uninstall()
            want_full = router.query_batch(queries, k=5)
            again = pool.query_batch(queries, k=5)
            assert [_ranking(r) for r in again] == [
                _ranking(r) for r in want_full
            ]
            assert all(not r.degraded for r in again)
