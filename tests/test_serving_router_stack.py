"""The one-probe, one-page router against its per-shard predecessor.

:class:`repro.serving.ShardRouter` probes one stacked CSR
(:meth:`ShardedCatalog.stacked_postings`) and assembles one candidate
page per query; ``scatter_router_oracle.ScatterRouterOracle`` is the
parent commit's router — a probe and a sub-page per shard, heap-merged
and re-interleaved. This file holds router == oracle == monolithic
engine where the other serving suites cannot see a difference:

* through writes — a Hypothesis machine interleaves ``add_table`` /
  ``add_sketches`` / ``remove_sketches`` / ``compact`` with queries
  through one long-lived router, so a stack that outlives a write fails;
* through failures — one shard and every shard lost under
  ``on_shard_error="partial"``;
* in what runs — the LSH backend still probes shard by shard, and a
  depth-100 query over four arena shards costs one ScanCount, one page
  kernel pass and no more woken arena entries than candidates.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import joined_sample
from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog, _DeferredEntryDict
from repro.index.engine import CandidatePage, JoinCorrelationEngine
from repro.index.inverted import ColumnarPostings
from repro.serving import ShardedCatalog, ShardRouter, injected
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table
from scatter_router_oracle import ScatterRouterOracle

SKETCH_SIZE = 16
HASHER = KeyHasher(seed=11)
UNIVERSE = [f"k{i}" for i in range(60)]
#: Below the joinable-candidate count most of the time, so the global
#: cutoff (and its id tie-break across shards) is exercised.
DEPTH = 6
N_SHARDS = 3
SCORERS = ("rp_cih", "rb_cib", "jc_est")
CLOCKS = ("retrieval_seconds", "rerank_seconds")


def _sketch(rng, name, rows=40):
    picked = rng.choice(len(UNIVERSE), size=rows, replace=False)
    return CorrelationSketch.from_columns(
        [UNIVERSE[j] for j in picked],
        rng.standard_normal(rows).round(1),  # rounded: equal scores occur
        SKETCH_SIZE, hasher=HASHER, name=name,
    )


def _queries():
    rng = np.random.default_rng(5)
    return [_sketch(rng, f"query{j}", rows=50) for j in range(2)]


QUERIES = _queries()


def _answers(results, *drop):
    """``to_dict()`` of each result without the wall-clock fields (and
    ``drop``): everything a client can read that must not move."""
    return [
        {
            key: value
            for key, value in result.to_dict().items()
            if key not in CLOCKS + drop
        }
        for result in results
    ]


def _monolithic(live, depth=DEPTH, **options):
    catalog = SketchCatalog(sketch_size=SKETCH_SIZE, hasher=HASHER)
    catalog.add_sketches(sorted(live.items()))
    return JoinCorrelationEngine(catalog, retrieval_depth=depth, **options)


class RouterThroughWritesMachine(RuleBasedStateMachine):
    """Writes on a :class:`ShardedCatalog` under one long-lived router
    (and one long-lived oracle router on the same catalog); after every
    step both must give the monolithic engine's answer over exactly the
    live sketches."""

    def __init__(self):
        super().__init__()
        self.catalog = ShardedCatalog(
            N_SHARDS, sketch_size=SKETCH_SIZE, hasher=HASHER
        )
        self.router = ShardRouter(self.catalog, retrieval_depth=DEPTH)
        self.oracle = ScatterRouterOracle(self.catalog, retrieval_depth=DEPTH)
        self.live: dict[str, CorrelationSketch] = {}
        self.rng = np.random.default_rng(2024)
        self.serial = 0

    @rule(rows=st.integers(min_value=5, max_value=45))
    def add_table(self, rows):
        self.serial += 1
        picked = self.rng.choice(len(UNIVERSE), size=rows, replace=False)
        table = Table(
            f"t{self.serial}.csv",
            [
                CategoricalColumn("key", [UNIVERSE[j] for j in picked]),
                NumericColumn("a", self.rng.standard_normal(rows).round(1)),
                NumericColumn("b", self.rng.standard_normal(rows).round(1)),
            ],
        )
        for sid in self.catalog.add_table(table):
            self.live[sid] = self.catalog.get(sid)

    @rule(count=st.integers(min_value=1, max_value=4))
    def add_sketches(self, count):
        batch = []
        for _ in range(count):
            self.serial += 1
            sid = f"s{self.serial:03d}"
            batch.append((sid, _sketch(self.rng, sid)))
        self.catalog.add_sketches(batch)
        self.live.update(batch)

    @rule(data=st.data())
    def remove_sketches(self, data):
        if not self.live:
            return
        gone = data.draw(
            st.lists(
                st.sampled_from(sorted(self.live)),
                min_size=1, max_size=4, unique=True,
            )
        )
        self.catalog.remove_sketches(gone)
        for sid in gone:
            del self.live[sid]

    @rule()
    def compact(self):
        self.catalog.compact()

    @invariant()
    def router_equals_oracle_equals_monolithic(self):
        scorer = SCORERS[self.serial % len(SCORERS)]
        excludes = [next(iter(self.live), None), None]
        ask = dict(k=DEPTH, scorer=scorer, exclude_ids=excludes)
        got = _answers(self.router.query_batch(QUERIES, **ask))
        assert got == _answers(self.oracle.query_batch(QUERIES, **ask))
        want = _monolithic(self.live).query_batch(QUERIES, **ask)
        for result in got:
            assert result.pop("shards_probed") == N_SHARDS
        assert got == _answers(want, "shards_probed")


TestRouterThroughWrites = RouterThroughWritesMachine.TestCase
TestRouterThroughWrites.settings = settings(
    max_examples=15,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- failures ----------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(77)
    live = {f"pair{i:02d}": _sketch(rng, f"pair{i:02d}") for i in range(24)}
    catalog = ShardedCatalog(4, sketch_size=SKETCH_SIZE, hasher=HASHER)
    catalog.add_sketches(live.items())
    return catalog, live


@pytest.mark.parametrize("lost", [(2,), (0, 1, 2, 3)], ids=["one", "all"])
@pytest.mark.parametrize("depth", [DEPTH, 100], ids=["truncating", "deep"])
def test_partial_answer_is_the_exact_answer_over_the_survivors(
    corpus, lost, depth
):
    """Lost shards leave the predecessor's answer and the monolithic
    engine's answer over the surviving shards' sketches, at any depth:
    the shards are checked before the probe, so a truncating retrieval
    is already a retrieval over the survivors."""
    catalog, live = corpus
    plan = {"shard_probe": {"kind": "exception", "times": None}}
    if len(lost) == 1:
        plan["shard_probe"]["shard"] = lost[0]
    ask = dict(k=10, scorer="rp_cih", on_shard_error="partial")

    router = ShardRouter(catalog, retrieval_depth=depth)
    with injected(plan):
        got = router.query_batch(QUERIES, **ask)
    clean = router.query_batch(QUERIES, **ask)
    oracle = ScatterRouterOracle(catalog, retrieval_depth=depth)
    with injected(plan):
        assert _answers(got) == _answers(oracle.query_batch(QUERIES, **ask))
    for result in got:
        assert (result.shards_probed, result.shards_failed, result.degraded) == (
            4, len(lost), True
        )
    # The degraded stack served only what answered; the full one is back.
    assert all(not result.degraded for result in clean)
    assert _answers(clean, "shards_probed") == _answers(
        _monolithic(live, depth).query_batch(QUERIES, k=10, scorer="rp_cih"),
        "shards_probed",
    )

    survivors = {
        sid: sketch
        for sid, sketch in live.items()
        if catalog.owner_of(sid) not in lost
    }
    want = _monolithic(survivors, depth).query_batch(
        QUERIES, k=10, scorer="rp_cih"
    )
    dropped = ("shards_probed", "shards_failed", "degraded")
    assert _answers(got, *dropped) == _answers(want, *dropped)
    if len(lost) == 4:
        assert all(result.ranked == [] for result in got)


# -- what runs ---------------------------------------------------------------


def _count_calls(monkeypatch, owner, name) -> list:
    """Count calls of ``owner.name`` (a plain or a class method)."""
    calls: list = []
    real = owner.__dict__[name]
    if isinstance(real, classmethod):
        def counted(cls, *args, **kwargs):
            calls.append(name)
            return real.__func__(cls, *args, **kwargs)

        monkeypatch.setattr(owner, name, classmethod(counted))
    else:
        def counted(self, *args, **kwargs):
            calls.append(name)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("backend, probes", [("inverted", 0), ("lsh", 4)])
def test_only_the_lsh_backend_probes_shard_by_shard(
    corpus, monkeypatch, backend, probes
):
    catalog, live = corpus
    options = dict(retrieval_backend=backend, lsh_bands=32, lsh_rows=1)
    calls = _count_calls(monkeypatch, JoinCorrelationEngine, "_probe")
    router = ShardRouter(catalog, retrieval_depth=DEPTH, **options)
    got = router.query_batch(QUERIES, k=DEPTH)
    assert len(calls) == probes
    want = _monolithic(live, **options).query_batch(QUERIES, k=DEPTH)
    assert _answers(got, "shards_probed") == _answers(want, "shards_probed")


def test_depth_100_query_is_one_probe_one_page_and_wakes_its_candidates(
    tmp_path, monkeypatch
):
    """Four arena shards, 160 sketches, depth 100: one stacked ScanCount,
    one page-kernel pass, and only the page's candidates leave the arena
    — opening and warming (which builds the stack from the shards' CSR
    arrays) wake none. The predecessor made four of each."""
    rng = np.random.default_rng(3)
    built = ShardedCatalog(4, sketch_size=64, hasher=HASHER)
    built.add_sketches(
        (f"pair{i:03d}", _sketch_sized(rng, f"pair{i:03d}")) for i in range(160)
    )
    built.compact()
    built.save(tmp_path / "shards")
    query = _sketch_sized(rng, "query")

    wakes = _count_calls(monkeypatch, _DeferredEntryDict, "_wake")
    catalog = ShardedCatalog.load(tmp_path / "shards")
    router = ShardRouter(catalog, retrieval_depth=100)
    router.warm()
    assert catalog.storage_backends() == ["mmap"] * 4 and not wakes
    probes = _count_calls(monkeypatch, ColumnarPostings, "overlap_counts_batch")
    passes = _count_calls(monkeypatch, joined_sample, "_join_rows")
    result = router.query(query, k=10)
    assert result.candidates_considered == 100
    assert (len(probes), len(passes)) == (1, 1)
    assert len(wakes) <= 100

    expected = JoinCorrelationEngine(
        _as_monolithic(built), retrieval_depth=100
    ).query(query, k=10)
    assert _answers([result], "shards_probed") == _answers(
        [expected], "shards_probed"
    )


def _sketch_sized(rng, name):
    keys = rng.choice(400, size=200, replace=False)
    return CorrelationSketch.from_columns(
        keys, rng.standard_normal(200), 64, hasher=HASHER, name=name
    )


def _as_monolithic(sharded: ShardedCatalog) -> SketchCatalog:
    catalog = SketchCatalog(sketch_size=sharded.sketch_size, hasher=HASHER)
    catalog.add_sketches((sid, sharded.get(sid)) for sid in sorted(sharded))
    return catalog
