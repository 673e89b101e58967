"""Tests for the batch query_table API and engine robustness."""

import math

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.index.catalog import SketchCatalog
from repro.index.engine import JoinCorrelationEngine
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table, table_from_arrays


@pytest.fixture()
def world():
    rng = np.random.default_rng(0)
    n = 2000
    keys = [f"k{i}" for i in range(n)]
    signal_a = rng.standard_normal(n)
    signal_b = rng.standard_normal(n)

    catalog = SketchCatalog(sketch_size=128)
    catalog.add_table(
        table_from_arrays("match_a", keys, 0.9 * signal_a + 0.45 * rng.standard_normal(n))
    )
    catalog.add_table(
        table_from_arrays("match_b", keys, 0.9 * signal_b + 0.45 * rng.standard_normal(n))
    )
    catalog.add_table(table_from_arrays("noise", keys, rng.standard_normal(n)))

    query_table = Table(
        "mine",
        [
            CategoricalColumn("key", keys),
            NumericColumn("col_a", signal_a),
            NumericColumn("col_b", signal_b),
        ],
    )
    return catalog, query_table


def test_query_table_one_result_per_pair(world):
    catalog, query_table = world
    engine = JoinCorrelationEngine(catalog)
    results = engine.query_table(query_table, k=3, scorer="rp")
    assert set(results) == {"mine::key->col_a", "mine::key->col_b"}


def test_query_table_matches_per_column(world):
    """Each query column must surface its own planted match first."""
    catalog, query_table = world
    engine = JoinCorrelationEngine(catalog)
    results = engine.query_table(query_table, k=1, scorer="rp")
    assert results["mine::key->col_a"].ranked[0].candidate_id.startswith("match_a")
    assert results["mine::key->col_b"].ranked[0].candidate_id.startswith("match_b")


def test_query_table_empty_table():
    catalog = SketchCatalog(sketch_size=16)
    catalog.add_table(table_from_arrays("t", ["a"], [1.0]))
    engine = JoinCorrelationEngine(catalog)
    empty = Table("empty", [])
    assert engine.query_table(empty) == {}


def test_engine_with_all_nan_query_values(world):
    """A query column of only missing values joins but estimates NaN —
    candidates score 0 and the query still completes."""
    catalog, _ = world
    keys = [f"k{i}" for i in range(100)]
    sketch = CorrelationSketch.from_columns(
        keys, np.full(len(keys), math.nan), 128, hasher=catalog.hasher
    )
    engine = JoinCorrelationEngine(catalog)
    result = engine.query(sketch, k=3, scorer="rp")
    assert result.candidates_considered > 0
    assert all(e.score == 0.0 for e in result.ranked)


def test_engine_query_with_unicode_keys():
    rng = np.random.default_rng(1)
    n = 500
    keys = [f"clé-{i}-münchen-北京" for i in range(n)]
    x = rng.standard_normal(n)
    catalog = SketchCatalog(sketch_size=64)
    catalog.add_table(table_from_arrays("uni", keys, 0.9 * x + 0.4 * rng.standard_normal(n)))
    query = CorrelationSketch.from_columns(keys, x, 64, hasher=catalog.hasher)
    result = JoinCorrelationEngine(catalog).query(query, k=1, scorer="rp")
    assert result.ranked[0].stats.r_pearson > 0.7


def test_engine_single_row_overlap():
    """One shared key: correlation undefined, engine must not crash."""
    catalog = SketchCatalog(sketch_size=16)
    catalog.add_table(table_from_arrays("t", ["shared", "x1"], [1.0, 2.0]))
    query = CorrelationSketch.from_columns(
        ["shared", "q1"], [5.0, 6.0], 16, hasher=catalog.hasher
    )
    result = JoinCorrelationEngine(catalog).query(query, k=5, scorer="rp")
    assert result.candidates_considered == 1
    assert math.isnan(result.ranked[0].stats.r_pearson)
    assert result.ranked[0].score == 0.0
