"""Stateful mutation-oracle harness for the delta-layer index stack.

Hypothesis drives random mutation histories — add, remove, query,
query_batch, compact, snapshot round trip — against a
:class:`SketchCatalog` (and a :class:`ShardedCatalog` behind the
scatter-gather router), and after every query checks the layered answer
bit-for-bit against an *oracle*: a monolithic catalog rebuilt from
scratch out of exactly the live sketches. The oracle never mutates, so
any divergence is a delta/tombstone bookkeeping bug, not an oracle bug.

This complements ``test_index_delta.py``: that file pins one canonical
mutation history across the full scorer × rng_mode × backend × shard
matrix; this one explores *arbitrary* interleavings (remove-then-re-add,
compact mid-stream, persistence with a live delta, queries for absent
ids) that no hand-written history would enumerate.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.index.engine import JoinCorrelationEngine
from repro.serving import ShardedCatalog, ShardRouter, injected

SKETCH_SIZE = 16
HASHER = KeyHasher(seed=11)

#: Scorers sampled per query step: the deterministic baseline, the
#: stochastic bootstrap (rng-stream sensitive) and an estimator-backed
#: scorer. The full scorer matrix runs in test_index_delta.py.
SCORERS = ("rp", "rb_cib", "jc_est")
BACKENDS = ("inverted", "lsh")


def _build_pool():
    """~30 sketches over a small shared key universe, so random subsets
    overlap heavily and queries always have non-trivial candidates."""
    rng = np.random.default_rng(123)
    universe = [f"k{i}" for i in range(80)]
    pool = {}
    for i in range(30):
        n = int(rng.integers(20, 70))
        picked = rng.choice(len(universe), size=n, replace=False)
        keys = [universe[j] for j in sorted(picked)]
        sid = f"s{i:02d}"
        pool[sid] = CorrelationSketch.from_columns(
            keys, rng.standard_normal(n), SKETCH_SIZE, hasher=HASHER, name=sid
        )
    return pool


POOL = _build_pool()
POOL_IDS = sorted(POOL)


def _ranking(result):
    return [(e.candidate_id, e.score) for e in result.ranked]


class SketchCatalogMachine(RuleBasedStateMachine):
    """add/remove/query/query_batch/compact/save-load against the oracle."""

    def __init__(self):
        super().__init__()
        self.live: dict[str, CorrelationSketch] = {}
        self._tmp = tempfile.TemporaryDirectory()
        self._saves = 0
        self.catalog = self._new_catalog()

    def teardown(self):
        self._tmp.cleanup()

    # -- catalog flavour hooks (overridden by the sharded machine) -----------

    def _new_catalog(self):
        return SketchCatalog(sketch_size=SKETCH_SIZE, hasher=HASHER)

    def _query_one(self, query, k, scorer, backend, exclude):
        return JoinCorrelationEngine(
            self.catalog, retrieval_backend=backend
        ).query(query, k=k, scorer=scorer, exclude_id=exclude)

    def _query_many(self, queries, k, scorer, backend, excludes):
        return JoinCorrelationEngine(
            self.catalog, retrieval_backend=backend
        ).query_batch(queries, k=k, scorer=scorer, exclude_ids=excludes)

    def _reload(self, suffix):
        # "arena" reloads memory-mapped: subsequent rules mutate and
        # query a catalog whose frozen arrays are read-only views.
        # "json" reloads onto the heap with no frozen layer at all.
        path = Path(self._tmp.name) / f"snap-{self._saves}.{suffix}"
        self._saves += 1
        self.catalog.save(path)
        return SketchCatalog.load(path)

    # -- the oracle ----------------------------------------------------------

    def _oracle(self):
        oracle = SketchCatalog(sketch_size=SKETCH_SIZE, hasher=HASHER)
        for sid in sorted(self.live):
            oracle.add_sketch(sid, self.live[sid])
        return oracle

    def _oracle_one(self, query, k, scorer, backend, exclude):
        return JoinCorrelationEngine(
            self._oracle(), retrieval_backend=backend
        ).query(query, k=k, scorer=scorer, exclude_id=exclude)

    # -- mutation rules ------------------------------------------------------

    @rule(sid=st.sampled_from(POOL_IDS))
    def add(self, sid):
        if sid in self.live:
            with pytest.raises(ValueError, match="already in catalog"):
                self.catalog.add_sketch(sid, POOL[sid])
        else:
            self.catalog.add_sketch(sid, POOL[sid])
            self.live[sid] = POOL[sid]

    @rule(sid=st.sampled_from(POOL_IDS))
    def remove(self, sid):
        if sid in self.live:
            self.catalog.remove_sketch(sid)
            del self.live[sid]
        else:
            with pytest.raises(KeyError, match="no sketch"):
                self.catalog.remove_sketch(sid)

    @rule()
    def compact(self):
        self.catalog.compact()

    @rule(suffix=st.sampled_from(("json", "arena")))
    def snapshot_round_trip(self, suffix):
        self.catalog = self._reload(suffix)

    # -- query rules: every answer checked against the oracle ----------------

    @rule(
        sid=st.sampled_from(POOL_IDS),
        scorer=st.sampled_from(SCORERS),
        backend=st.sampled_from(BACKENDS),
        k=st.integers(min_value=1, max_value=8),
    )
    def query(self, sid, scorer, backend, k):
        if not self.live:
            return
        query = POOL[sid]
        got = self._query_one(query, k, scorer, backend, sid)
        want = self._oracle_one(query, k, scorer, backend, sid)
        assert got.candidates_considered == want.candidates_considered
        assert _ranking(got) == _ranking(want)

    @rule(
        data=st.data(),
        scorer=st.sampled_from(SCORERS),
        backend=st.sampled_from(BACKENDS),
    )
    def query_batch(self, data, scorer, backend):
        if not self.live:
            return
        sids = data.draw(
            st.lists(
                st.sampled_from(POOL_IDS), min_size=1, max_size=3, unique=True
            )
        )
        queries = [POOL[sid] for sid in sids]
        got = self._query_many(queries, 5, scorer, backend, sids)
        oracle_engine = JoinCorrelationEngine(
            self._oracle(), retrieval_backend=backend
        )
        want = oracle_engine.query_batch(
            queries, k=5, scorer=scorer, exclude_ids=sids
        )
        for g, w in zip(got, want):
            assert g.candidates_considered == w.candidates_considered
            assert _ranking(g) == _ranking(w)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def membership_matches_model(self):
        assert len(self.catalog) == len(self.live)
        assert set(self.catalog) == set(self.live)


class ShardedCatalogMachine(SketchCatalogMachine):
    """The same contract behind shard routing and manifest persistence."""

    @initialize(n_shards=st.sampled_from((1, 2, 7)))
    def pick_layout(self, n_shards):
        self.catalog = ShardedCatalog(
            n_shards, sketch_size=SKETCH_SIZE, hasher=HASHER
        )

    def _new_catalog(self):
        return ShardedCatalog(2, sketch_size=SKETCH_SIZE, hasher=HASHER)

    def _query_one(self, query, k, scorer, backend, exclude):
        return ShardRouter(self.catalog, retrieval_backend=backend).query(
            query, k=k, scorer=scorer, exclude_id=exclude
        )

    def _query_many(self, queries, k, scorer, backend, excludes):
        return ShardRouter(
            self.catalog, retrieval_backend=backend
        ).query_batch(queries, k=k, scorer=scorer, exclude_ids=excludes)

    def _reload(self, suffix):
        # One shard format: the suffix the base rule draws selects nothing.
        directory = Path(self._tmp.name) / f"manifest-{self._saves}"
        self._saves += 1
        self.catalog.save(directory)
        return ShardedCatalog.load(directory)

    # -- fault rule: degraded answers still track a (survivors) oracle -------

    @rule(
        sid=st.sampled_from(POOL_IDS),
        failed=st.integers(min_value=0, max_value=6),
        k=st.integers(min_value=1, max_value=8),
    )
    def query_with_shard_fault(self, sid, failed, k):
        """Inject an exception into one shard probe mid-history and check
        the partial answer bit-for-bit against a monolithic oracle built
        from the *surviving* shards' live sketches. Mutation state must
        be untouched: the very next rules keep using the same catalog."""
        if not self.live:
            return
        failed %= self.catalog.n_shards
        query = POOL[sid]
        with injected(
            {"shard_probe": {"shard": failed, "kind": "exception"}}
        ):
            got = ShardRouter(self.catalog).query(
                query, k=k, scorer="rp", exclude_id=sid,
                on_shard_error="partial",
            )
        assert got.shards_failed == 1 and got.degraded
        survivors = SketchCatalog(sketch_size=SKETCH_SIZE, hasher=HASHER)
        for live_id in sorted(self.live):
            if self.catalog.owner_of(live_id) != failed:
                survivors.add_sketch(live_id, self.live[live_id])
        want = JoinCorrelationEngine(survivors).query(
            query, k=k, scorer="rp", exclude_id=sid
        )
        assert _ranking(got) == _ranking(want)


_SETTINGS = settings(
    max_examples=10,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

TestSketchCatalogMachine = SketchCatalogMachine.TestCase
TestSketchCatalogMachine.settings = _SETTINGS
TestShardedCatalogMachine = ShardedCatalogMachine.TestCase
TestShardedCatalogMachine.settings = _SETTINGS
