"""Fault-injection matrix for the resilient serving stack.

Crosses fault kind (exception / truncated-snapshot / bad-checksum /
fsync) with every surface that must degrade gracefully (router single +
batch, catalog and manifest load, the HTTP service's shard accounting),
and pins the two contracts
everything hangs on:

* **fault-free parity** — with no plan installed (and even with
  ``on_shard_error="partial"`` engaged), results are bit-identical to
  the plain path;
* **survivors oracle** — a partial answer equals the exact answer of a
  monolithic engine over the surviving shards' sketches (the router
  checks every shard before it probes, so nothing is lost after
  retrieval).

Plan mechanics (sites, matchers, budgets, seeds) are covered at the
unit level at the bottom.
"""

import sys
import threading
import time

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
    FaultPlan,
    InjectedFault,
    QueryOptions,
    QueryService,
    QuerySession,
    ShardRouter,
    ShardUnavailable,
    ShardedCatalog,
    injected,
    install,
    uninstall,
)
from repro.serving import faults as faults_mod
from repro.serving.faults import active_plan, maybe_fire

SKETCH_SIZE = 32
N_SHARDS = 3
UNIVERSE = [f"k{i}" for i in range(300)]


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    uninstall()
    yield
    uninstall()


def _build_catalog(n_shards: int = N_SHARDS) -> ShardedCatalog:
    rng = np.random.default_rng(3)
    hasher = KeyHasher()
    catalog = ShardedCatalog(n_shards, sketch_size=SKETCH_SIZE, hasher=hasher)
    for i in range(12):
        picked = rng.choice(len(UNIVERSE), size=150, replace=False)
        sid = f"p{i:02d}"
        catalog.add_sketch(
            sid,
            CorrelationSketch.from_columns(
                [UNIVERSE[j] for j in sorted(picked)],
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


@pytest.mark.parametrize("scorer", ["rp_cih", "rb_cib"])
def test_resilience_knobs_are_bit_identical_without_faults(
    catalog, queries, scorer
):
    """on_shard_error="partial" with no plan installed changes nothing:
    same ids, scores, order as the plain call."""
    router = ShardRouter(catalog)
    plain = router.query_batch(queries, k=5, scorer=scorer)
    guarded = router.query_batch(
        queries, k=5, scorer=scorer, on_shard_error="partial"
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
    result = ShardRouter(catalog).query(queries[0], k=5)
    assert not result.degraded and result.shards_failed == 0


# -- exception faults ---------------------------------------------------------


def test_exception_fault_partial_drops_one_shard(catalog, queries):
    """A raising shard degrades the answer to the survivors oracle,
    single and batch surface alike."""
    router = ShardRouter(catalog)
    with injected({"shard_probe": {"shard": 2, "kind": "exception"}}):
        single = router.query(queries[0], k=5, on_shard_error="partial")
    with injected({"shard_probe": {"shard": 2, "kind": "exception"}}):
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
    with injected({"shard_probe": {"shard": 0, "kind": "exception"}}):
        with pytest.raises(InjectedFault, match="shard_probe"):
            ShardRouter(catalog).query(queries[0], k=5)


def test_raise_policy_failures_reach_the_shard_error_counter(catalog):
    """A failing shard is counted under the default ``raise`` policy
    too: three queries that each raise leave three errors on
    ``/healthz`` and on the failing shard's own counter."""
    rng = np.random.default_rng(8)
    payload = {
        "keys": UNIVERSE[:120],
        "values": rng.standard_normal(120).tolist(),
    }
    with QueryService(QuerySession.for_sharded(catalog)) as service:
        with injected(
            {"shard_probe": {"shard": 1, "kind": "exception", "times": None}}
        ):
            for _ in range(3):
                with pytest.raises(InjectedFault):
                    service.handle_query(payload)
        assert service.health_payload()["shards"] == {
            "count": N_SHARDS, "errors": 3,
        }
        counter = service.registry.counter_value
        assert counter("repro_shard_errors_total", shard="1") == 3.0
        assert counter("repro_shard_errors_total", shard="0") == 0.0


def test_all_shards_failing_yields_empty_degraded_result(catalog, queries):
    with injected({"shard_probe": {"kind": "exception", "times": None}}):
        result = ShardRouter(catalog).query(
            queries[0], k=5, on_shard_error="partial"
        )
    assert result.shards_failed == N_SHARDS
    assert result.degraded and result.ranked == []


def test_probabilistic_shard_faults_degrade_to_the_survivors():
    """Each of 4 shards' probes raises with probability 0.1 (seeded), over
    passes of 8 queries: every query still probes all 4 shards, is flagged
    degraded exactly when a shard failed, counts the shards that fired
    for it, and answers exactly as a monolithic engine over the shards
    that survived it."""
    catalog = _build_catalog(4)
    rng = np.random.default_rng(17)
    queries = []
    for j in range(8):
        picked = sorted(rng.choice(len(UNIVERSE), size=200, replace=False))
        queries.append(
            CorrelationSketch.from_columns(
                [UNIVERSE[i] for i in picked],
                rng.standard_normal(200),
                SKETCH_SIZE,
                hasher=catalog.hasher,
                name=f"q{j}",
            )
        )
    router = ShardRouter(catalog)
    oracles = {}
    degraded = 0
    with injected(
        {"shard_probe": {"kind": "exception", "probability": 0.1, "times": None}}
    ) as plan:
        for _ in range(3):
            for query in queries:
                fired = len(plan.fired_log)
                got = router.query(query, k=5, on_shard_error="partial")
                lost = frozenset(ctx["shard"] for _, ctx in plan.fired_log[fired:])
                assert got.shards_probed == 4
                assert got.degraded == (got.shards_failed > 0)
                assert got.shards_failed == len(lost)
                if lost not in oracles:
                    oracles[lost] = _survivor_oracle(catalog, lost)
                assert _ranking(got) == _ranking(oracles[lost].query(query, k=5))
                degraded += got.degraded
    assert degraded > 0


def test_router_validates_resilience_arguments(catalog, queries):
    router = ShardRouter(catalog)
    with pytest.raises(ValueError, match="on_shard_error"):
        router.query_batch(queries, on_shard_error="retry")
    with pytest.raises(TypeError, match="deadline_ms"):
        router.query(queries[0], deadline_ms=50)


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

    failed = ShardedCatalog.load(directory)  # the default policy records it
    with pytest.raises(ValueError, match="truncated arena"):
        failed.shard(1)

    loaded = ShardedCatalog.load(directory, on_corruption="quarantine")
    assert (directory / (shard_file.name + QUARANTINE_SUFFIX)).exists()
    assert not shard_file.exists()
    assert [e["shard"] for e in loaded.quarantine_events] == [1]
    with pytest.raises(ShardUnavailable):
        loaded.shard(1)  # sticky

    query = built.get("p00")
    result = ShardRouter(loaded).query(query, k=5, on_shard_error="partial")
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


def test_arena_header_without_checksum_is_corrupt(tmp_path):
    """Every arena of this version records its payload CRC32, so a header
    without one is corrupt: verification raises instead of answering
    "unchecked"."""
    from repro.index.arena import ArenaReader

    catalog = _build_catalog()
    mono = SketchCatalog(sketch_size=SKETCH_SIZE, hasher=catalog.hasher)
    mono.add_sketch("x", catalog.get("p00"))
    arena_path = tmp_path / "c.arena"
    mono.save(arena_path)
    reader = ArenaReader(arena_path)
    assert reader.verify_payload() is True
    reader.meta.pop("payload_crc32")
    with pytest.raises(ValueError, match="no payload_crc32"):
        reader.verify_payload()


def test_snapshot_read_fault_exercises_quarantine(tmp_path):
    """An injected read fault walks exactly the real corruption path:
    the (healthy) file is quarantined and the shard marked unavailable."""
    _, directory = _saved_dir(tmp_path)
    install(
        {"snapshot_read": {"path": "shard-0002", "kind": "exception"}}
    )
    loaded = ShardedCatalog.load(directory, on_corruption="quarantine")
    assert (directory / ("shard-0002.arena" + QUARANTINE_SUFFIX)).exists()
    with pytest.raises(ShardUnavailable):
        loaded.shard(2)
    assert loaded.shard(0) is not None  # other shards unaffected


def test_failed_shard_is_read_once_across_a_partial_session(
    tmp_path, monkeypatch
):
    """Two shards, one truncated, served ``partial``: opening the catalog
    reads each shard snapshot once, and neither warming nor 20 queries
    reads one again (re-loading the failed shard on every touch made 22
    reads). Every answer reports the lost shard and ranks as a
    monolithic engine over the surviving shard does."""
    built = _build_catalog(n_shards=2)
    directory = tmp_path / "shards"
    built.save(directory)
    _truncate(directory / "shard-0001.arena")
    reads = []
    load = SketchCatalog.load.__func__

    def counted_load(cls, path, **kwargs):
        reads.append(path.name)
        return load(cls, path, **kwargs)

    monkeypatch.setattr(SketchCatalog, "load", classmethod(counted_load))
    session = QuerySession.open(
        directory, QueryOptions(k=5, on_shard_error="partial")
    )
    session.warm()
    queries = [built.get(sid) for sid in sorted(built)[:4]] * 5
    results = [session.submit_one(query) for query in queries]

    assert sorted(reads) == ["shard-0000.arena", "shard-0001.arena"]
    assert [r.shards_failed for r in results] == [1] * 20
    assert all(r.degraded for r in results)
    oracle = _survivor_oracle(built, {1})
    assert [_ranking(r) for r in results] == [
        _ranking(oracle.query(query, k=5)) for query in queries
    ]


def test_recorded_shard_error_does_not_grow_across_touches(tmp_path):
    """The recorded error is raised afresh on every touch: its traceback
    is as long on the tenth query as on the first."""
    built = _build_catalog()
    directory = tmp_path / "shards"
    built.save(directory)
    _truncate(directory / "shard-0001.arena")
    router = ShardRouter(ShardedCatalog.load(directory))

    def traceback_depth():
        with pytest.raises(ValueError) as info:
            router.query(built.get("p00"), k=5)
        tb, depth = info.value.__traceback__, 0
        while tb is not None:
            tb, depth = tb.tb_next, depth + 1
        return depth

    first = traceback_depth()
    assert [traceback_depth() for _ in range(9)] == [first] * 9


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


class _YieldingBudget(int):
    """A rule budget whose compare yields the GIL, so another thread
    always runs between ``consume``'s check and its decrement."""

    def __le__(self, other):
        time.sleep(0)
        return int(self) <= other

    def __sub__(self, other):
        return _YieldingBudget(int(self) - other)


def test_rule_budget_holds_under_threads():
    """Threaded HTTP handlers reach ``shard_probe`` concurrently: a
    ``times=5`` rule fires exactly five times across 8 threads × 50
    hits, and the plan counts exactly those five. The budget yields the
    GIL inside its check-then-decrement window, so without the plan
    lock the threads overdraw it."""
    plan = install({"shard_probe": {"kind": "exception", "times": 5}})
    plan.rules["shard_probe"][0].remaining = _YieldingBudget(5)
    raised = []
    barrier = threading.Barrier(8)

    def hammer():
        barrier.wait()
        for _ in range(50):
            try:
                maybe_fire("shard_probe", shard=0)
            except InjectedFault:
                raised.append(1)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(raised) == 5
    assert plan.fired_count == 5
    assert len(plan.fired_log) == 5


def test_path_matcher_is_substring():
    plan = install(
        {"snapshot_read": {"path": "shard-0001", "kind": "exception"}}
    )
    maybe_fire("snapshot_read", path="/tmp/x/shard-0002.arena")
    with pytest.raises(InjectedFault):
        maybe_fire("snapshot_read", path="/tmp/x/shard-0001.arena")
    assert plan.fired_count == 1


def test_probability_stream_is_seeded():
    """A seed replays its fault sequence; a plan built without one
    replays seed 7's."""
    def fired_pattern(**seed):
        plan = FaultPlan(
            {
                "shard_probe": {
                    "kind": "delay", "ms": 0.001,
                    "probability": 0.5, "times": None,
                }
            },
            **seed,
        )
        install(plan)
        pattern = []
        for _ in range(16):
            before = plan.fired_count
            maybe_fire("shard_probe", shard=0)
            pattern.append(plan.fired_count > before)
        uninstall()
        return pattern

    assert fired_pattern(seed=11) == fired_pattern(seed=11)
    assert fired_pattern(seed=11) != fired_pattern(seed=12)
    assert fired_pattern() == fired_pattern(seed=7)


def test_seed_env_default(monkeypatch):
    """The default seed is 7 and no environment variable changes it: a
    plan's seed is whatever its constructor was given."""
    monkeypatch.setenv("REPRO_FAULT_SEED", "41")
    assert FaultPlan({}).seed == 7
    assert install({}).seed == 7
    uninstall()
    monkeypatch.delenv("REPRO_FAULT_SEED")
    assert FaultPlan({}).seed == 7
    assert FaultPlan({}, seed=41).seed == 41


def test_injected_fault_is_a_value_error():
    assert issubclass(InjectedFault, ValueError)
    assert faults_mod.active_plan() is None


# -- the acceptance scenario, end to end -------------------------------------


def test_acceptance_one_persistently_failing_shard(catalog, queries):
    """One plan breaking shard 1 for good: every
    query_batch(on_shard_error="partial") serves the survivors with
    degraded=True and shards_failed == 1, batch after batch."""
    router = ShardRouter(catalog)
    oracle = _survivor_oracle(catalog, {1})
    want = [_ranking(r) for r in oracle.query_batch(queries, k=5)]
    plan = install(
        {"shard_probe": {"shard": 1, "kind": "exception", "times": None}}
    )
    for batch in (1, 2):
        got = router.query_batch(queries, k=5, on_shard_error="partial")
        assert len(got) == len(queries)
        assert all(r.degraded and r.shards_failed == 1 for r in got)
        assert [_ranking(r) for r in got] == want
        # One shard check per batch, not per query.
        assert plan.fired_count == batch
