"""QueryOptions: the one validated record behind every query entry point.

Pins three contracts: (1) validation fires with the exact messages the
engine/router constructors historically raised — so the refactor onto
one shared record is invisible to error-matching callers; (2) the
record round-trips through JSON; (3) the engine and router built
``from_options`` behave identically to hand-threaded constructor
arguments.
"""

import json

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.index.engine import JoinCorrelationEngine
from repro.index.options import (
    ON_SHARD_ERROR_POLICIES,
    RETRIEVAL_BACKENDS,
    QueryOptions,
    validate_resilience,
)
from repro.ranking.scoring import RNG_MODES, SCORER_NAMES
from repro.serving import ShardRouter, ShardedCatalog


def _corpus(n=12, sketch_size=32, rows=80, universe=400):
    rng = np.random.default_rng(3)
    hasher = KeyHasher()
    pairs = []
    for i in range(n):
        keys = rng.choice(universe, rows, replace=False)
        pairs.append(
            (
                f"p{i:02d}",
                CorrelationSketch.from_columns(
                    keys,
                    rng.standard_normal(rows),
                    sketch_size,
                    hasher=hasher,
                    name=f"p{i:02d}",
                ),
            )
        )
    mono = SketchCatalog(sketch_size=sketch_size, hasher=hasher)
    mono.add_sketches(pairs)
    sharded = ShardedCatalog(2, sketch_size=sketch_size, hasher=hasher)
    sharded.add_sketches(pairs)
    keys = rng.choice(universe, rows, replace=False)
    query = CorrelationSketch.from_columns(
        keys, rng.standard_normal(rows), sketch_size, hasher=hasher, name="q"
    )
    return mono, sharded, query


# -- validation ---------------------------------------------------------------


class TestValidation:
    def test_defaults_are_valid(self):
        options = QueryOptions()
        assert options.k == 10
        assert options.depth == 100
        assert options.scorer == "rp_cih"
        assert options.rng_mode == "batched"
        assert options.retrieval_backend == "inverted"
        assert options.seed is None
        assert options.on_shard_error == "raise"
        assert "deadline_ms" not in options.to_dict()

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("k", 0, "k must be positive, got 0"),
            ("k", -3, "k must be positive, got -3"),
            ("depth", 0, "retrieval_depth must be positive, got 0"),
            ("scorer", "bogus", "unknown scorer 'bogus'"),
            ("rng_mode", "bogus", "unknown rng_mode 'bogus'"),
            (
                "retrieval_backend",
                "bogus",
                "unknown retrieval_backend 'bogus'",
            ),
            ("lsh_bands", 0, "lsh_bands must be positive, got 0"),
            ("lsh_rows", -1, "lsh_rows must be positive, got -1"),
            ("on_shard_error", "bogus", "unknown on_shard_error 'bogus'"),
        ],
    )
    def test_each_field_validates(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            QueryOptions(**{field: value})

    def test_frozen(self):
        options = QueryOptions()
        with pytest.raises(AttributeError):
            options.k = 5

    def test_validate_resilience_shared_rule(self):
        validate_resilience("raise")
        validate_resilience("partial")
        with pytest.raises(ValueError, match="unknown on_shard_error"):
            validate_resilience("retry")
        # The router's per-call validation is this rule.
        router = ShardRouter(_corpus(n=2)[1])
        with pytest.raises(ValueError, match="unknown on_shard_error"):
            router.query_batch([], on_shard_error="retry")

    def test_constants_re_exported(self):
        from repro.index import engine
        from repro.serving import router

        assert engine.RETRIEVAL_BACKENDS is RETRIEVAL_BACKENDS
        assert router.ON_SHARD_ERROR_POLICIES is ON_SHARD_ERROR_POLICIES


# -- merged -------------------------------------------------------------------


class TestMerged:
    def test_no_overrides_returns_self(self):
        options = QueryOptions()
        assert options.merged() is options
        assert options.merged(k=None, scorer=None) is options

    def test_none_dropped_for_required_fields(self):
        options = QueryOptions(k=7, scorer="rp")
        merged = options.merged(k=None, scorer="jc")
        assert merged.k == 7
        assert merged.scorer == "jc"

    def test_none_meaningful_for_optional_fields(self):
        options = QueryOptions(seed=11, lsh_bands=8, lsh_rows=2)
        merged = options.merged(seed=None, lsh_bands=None, lsh_rows=None)
        assert merged.seed is None
        assert merged.lsh_bands is None
        assert merged.lsh_rows is None

    def test_merged_revalidates(self):
        with pytest.raises(ValueError, match="k must be positive"):
            QueryOptions().merged(k=-1)
        with pytest.raises(ValueError, match="unknown scorer"):
            QueryOptions().merged(scorer="bogus")


# -- serialization ------------------------------------------------------------


class TestSerialization:
    def test_round_trip(self):
        options = QueryOptions(
            k=5,
            depth=20,
            scorer="rb_cib",
            rng_mode="compat",
            retrieval_backend="lsh",
            lsh_bands=16,
            lsh_rows=2,
            seed=42,
            on_shard_error="partial",
        )
        payload = json.loads(json.dumps(options.to_dict()))
        assert QueryOptions.from_dict(payload) == options

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown QueryOptions field"):
            QueryOptions.from_dict({"k": 3, "depht": 10})

    def test_from_dict_revalidates(self):
        with pytest.raises(ValueError, match="unknown rng_mode"):
            QueryOptions.from_dict({"rng_mode": "bogus"})


# -- engine integration -------------------------------------------------------


class TestEngineFromOptions:
    def test_from_options_equals_hand_threaded(self):
        mono, _, query = _corpus()
        options = QueryOptions(
            depth=6, min_overlap=2, rng_mode="compat", retrieval_backend="lsh",
            lsh_bands=16, lsh_rows=1,
        )
        by_options = JoinCorrelationEngine.from_options(mono, options)
        by_hand = JoinCorrelationEngine(
            mono, retrieval_depth=6, min_overlap=2, rng_mode="compat",
            retrieval_backend="lsh", lsh_bands=16, lsh_rows=1,
        )
        assert by_options.options == by_hand.options
        a = by_options.query(query, k=4, scorer="rp")
        b = by_hand.query(query, k=4, scorer="rp")
        assert a.to_dict()["ranked"] == b.to_dict()["ranked"]

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            ({"retrieval_depth": 0}, "retrieval_depth must be positive"),
            ({"rng_mode": "bogus"}, "unknown rng_mode"),
            ({"retrieval_backend": "x"}, "unknown retrieval_backend"),
            ({"lsh_bands": 0}, "lsh_bands must be positive"),
            ({"lsh_rows": -2}, "lsh_rows must be positive"),
        ],
    )
    def test_constructor_messages_unchanged(self, kwargs, message):
        mono, _, _ = _corpus(n=2)
        with pytest.raises(ValueError, match=message):
            JoinCorrelationEngine(mono, **kwargs)
        with pytest.raises(ValueError, match=message):
            ShardRouter(_corpus(n=2)[1], **kwargs)


class TestRouterFromOptions:
    def test_from_options_equals_hand_threaded(self):
        _, sharded, query = _corpus()
        options = QueryOptions(depth=6, retrieval_backend="inverted")
        by_options = ShardRouter.from_options(sharded, options)
        by_hand = ShardRouter(sharded, retrieval_depth=6)
        assert by_options.options == by_hand.options
        a = by_options.query(query, k=4, scorer="rp")
        b = by_hand.query(query, k=4, scorer="rp")
        assert a.to_dict()["ranked"] == b.to_dict()["ranked"]


def test_registry_constants_cover_options_domain():
    """The choice tuples the record validates against are the library's
    canonical registries — no parallel lists to fall out of sync."""
    assert QueryOptions(scorer=SCORER_NAMES[0])
    assert QueryOptions(rng_mode=RNG_MODES[-1])
    assert QueryOptions(retrieval_backend=RETRIEVAL_BACKENDS[-1])
    assert QueryOptions(on_shard_error=ON_SHARD_ERROR_POLICIES[-1])
