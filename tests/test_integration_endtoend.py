"""End-to-end integration tests across all subsystems.

Exercise the full pipeline a downstream user would run: CSV files on disk
→ typed tables → sketch catalog (offline) → saved/reloaded catalog →
top-k join-correlation query (online) → ranked results validated against
full-data ground truth.
"""

import math

import numpy as np
import pytest

from repro import (
    CorrelationSketch,
    JoinCorrelationEngine,
    SketchCatalog,
    estimate,
    read_csv,
)
from repro.correlation.pearson import pearson
from repro.data.opendata import make_nyc_like_collection
from repro.data.workloads import collection_column_pairs
from repro.table.csv_io import write_csv
from repro.table.join import join_tables, true_correlation


@pytest.fixture()
def csv_world(tmp_path):
    """Three CSV files: a query table plus correlated / uncorrelated
    candidates, sharing date keys."""
    rng = np.random.default_rng(0)
    n = 600
    dates = [f"2021-{1 + i // 28:02d}-{1 + i % 28:02d}" for i in range(n)]
    signal = rng.standard_normal(n)

    def write(name, values, colname):
        lines = [f"date,{colname}"]
        lines += [f"{d},{v:.6f}" for d, v in zip(dates, values)]
        (tmp_path / name).write_text("\n".join(lines) + "\n")

    write("fatalities.csv", signal, "fatalities")
    write("precipitation.csv", 0.85 * signal + 0.5 * rng.standard_normal(n), "rain_mm")
    write("lottery.csv", rng.standard_normal(n), "winners")
    return tmp_path


def test_csv_to_query_pipeline(csv_world):
    catalog = SketchCatalog(sketch_size=256)
    for name in ("precipitation.csv", "lottery.csv"):
        catalog.add_table(read_csv(csv_world / name))

    query_table = read_csv(csv_world / "fatalities.csv")
    pair = query_table.column_pairs()[0]
    query_sketch = CorrelationSketch.from_columns(
        *query_table.pair_arrays(pair), 256, hasher=catalog.hasher, name="query"
    )

    engine = JoinCorrelationEngine(catalog)
    # rp: with only two candidates the cih min-max normalization is
    # degenerate (one candidate always gets the full penalty), so the
    # plain-estimate scorer is the right choice for tiny result lists.
    result = engine.query(query_sketch, k=5, scorer="rp")

    assert result.ranked[0].candidate_id.startswith("precipitation.csv")
    est = result.ranked[0].stats.r_pearson
    truth_join = join_tables(
        query_table, pair,
        read_csv(csv_world / "precipitation.csv"),
        read_csv(csv_world / "precipitation.csv").column_pairs()[0],
    )
    truth = true_correlation(truth_join, pearson)
    assert est == pytest.approx(truth, abs=0.15)


def test_catalog_persistence_round_trip(csv_world, tmp_path):
    catalog = SketchCatalog(sketch_size=128)
    catalog.add_table(read_csv(csv_world / "precipitation.csv"))
    catalog.add_table(read_csv(csv_world / "lottery.csv"))
    path = tmp_path / "catalog.json"
    catalog.save(path)

    reloaded = SketchCatalog.load(path)
    query_table = read_csv(csv_world / "fatalities.csv")
    pair = query_table.column_pairs()[0]
    query_sketch = CorrelationSketch.from_columns(
        *query_table.pair_arrays(pair), 128, hasher=reloaded.hasher
    )

    result = JoinCorrelationEngine(reloaded).query(query_sketch, k=2, scorer="rp")
    assert result.ranked[0].candidate_id.startswith("precipitation.csv")


def test_estimate_matches_truth_across_collection():
    """Sketch estimates track full-join truth across a whole synthetic
    open-data collection (the Figure 3 claim, miniature)."""
    collection = make_nyc_like_collection(n_tables=15, seed=3)
    refs = collection_column_pairs(collection)
    catalog = SketchCatalog(sketch_size=256)
    for ref in refs:
        if ref.pair_id not in catalog:
            catalog.add_column_pair(ref.table, ref.pair, sketch_id=ref.pair_id)

    checked = 0
    errors = []
    for i in range(len(refs)):
        for j in range(i + 1, len(refs)):
            a, b = refs[i], refs[j]
            if a.table.name == b.table.name:
                continue
            result = estimate(catalog.get(a.pair_id), catalog.get(b.pair_id))
            if result.sample_size < 30:
                continue
            join = join_tables(a.table, a.pair, b.table, b.pair)
            truth = true_correlation(join, pearson)
            if math.isnan(truth) or math.isnan(result.correlation):
                continue
            errors.append(result.correlation - truth)
            checked += 1
            if checked >= 40:
                break
        if checked >= 40:
            break

    assert checked >= 20
    rmse = math.sqrt(sum(e * e for e in errors) / len(errors))
    assert rmse < 0.3


def test_csv_round_trip_preserves_query_results(tmp_path):
    """write_csv → read_csv must not perturb sketch estimates."""
    rng = np.random.default_rng(5)
    n = 500
    keys = [f"k{i}" for i in range(n)]
    from repro.table.table import table_from_arrays

    original = table_from_arrays("orig", keys, rng.standard_normal(n))
    write_csv(original, tmp_path / "t.csv")
    reloaded = read_csv(tmp_path / "t.csv")

    pair_o = original.column_pairs()[0]
    pair_r = reloaded.column_pairs()[0]
    sk_o = CorrelationSketch.from_columns(*original.pair_arrays(pair_o), 64)
    sk_r = CorrelationSketch.from_columns(*reloaded.pair_arrays(pair_r), 64)
    assert sk_o.entries() == sk_r.entries()


def test_multicolumn_sketch_in_catalog_workflow():
    """The §3.1 multi-column build (one key selection, one sketch per
    numeric column) slots into a catalog transparently."""
    rng = np.random.default_rng(6)
    n = 800
    keys = [f"k{i}" for i in range(n)]
    x = rng.standard_normal(n)
    z = 0.9 * x + 0.45 * rng.standard_normal(n)

    catalog = SketchCatalog(sketch_size=128)
    ids = ["wide:x", "wide:z"]
    catalog.add_sketches(
        zip(
            ids,
            CorrelationSketch.from_key_column(
                keys, [x, z], 128, hasher=catalog.hasher, names=ids
            ),
        )
    )

    query = CorrelationSketch.from_columns(keys, x, 128, hasher=catalog.hasher)
    result = JoinCorrelationEngine(catalog).query(query, k=2, scorer="rp")
    assert result.ranked[0].candidate_id == "wide:x"  # identical column
    assert result.ranked[0].stats.r_pearson == pytest.approx(1.0, abs=1e-6)
    assert result.ranked[1].stats.r_pearson == pytest.approx(0.9, abs=0.1)
