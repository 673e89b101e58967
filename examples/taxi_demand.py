"""Example 2 from the paper: finding features for a taxi-demand model.

A data scientist holds an hourly taxi-pickups table and wants external
features that correlate with demand. The example demonstrates two things
beyond the basic query flow:

1. **aggregation semantics** — the candidate tables record *events* with
   repeated timestamps (one row per weather reading / per scheduled
   event), so the sketches aggregate values per key during construction,
   exactly as Section 3.1's streaming-aggregate machinery prescribes;
2. **model improvement** — after the search, the top-ranked features are
   actually joined and a least-squares demand model is refit, showing the
   RMSE drop that motivated the search in the first place.

Run with:  python examples/taxi_demand.py
"""

from __future__ import annotations

import numpy as np

from repro import CorrelationSketch, JoinCorrelationEngine, SketchCatalog
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.join import join_columns
from repro.table.table import Table


def hourly_keys(n_hours: int) -> list[str]:
    days = n_hours // 24 + 1
    return [
        f"2021-{1 + (d // 28) % 12:02d}-{1 + d % 28:02d}T{h:02d}"
        for d in range(days)
        for h in range(24)
    ][:n_hours]


def repeated_readings_table(
    name: str,
    column: str,
    hours: list[str],
    signal: np.ndarray,
    readings: int,
    noise: float,
    rng: np.random.Generator,
) -> Table:
    """A table with several noisy readings per hour (repeated keys)."""
    rep_keys: list[str] = []
    rep_vals: list[float] = []
    for i, h in enumerate(hours):
        for _ in range(readings):
            rep_keys.append(h)
            rep_vals.append(float(signal[i] + noise * rng.standard_normal()))
    return Table(
        name,
        [
            CategoricalColumn("hour", rep_keys),
            NumericColumn(column, np.asarray(rep_vals)),
        ],
    )


def main() -> None:
    rng = np.random.default_rng(21)
    n_hours = 4000
    hours = hourly_keys(n_hours)

    # Latent hourly factors.
    weather = rng.standard_normal(n_hours)
    events = rng.standard_normal(n_hours)

    demand = 500 + 120 * weather + 80 * events + 60 * rng.standard_normal(n_hours)
    query_table = Table(
        "taxi_pickups",
        [CategoricalColumn("hour", hours), NumericColumn("pickups", demand)],
    )

    candidates = [
        repeated_readings_table(
            "weather_station", "temperature_like", hours, weather, 3, 0.4, rng
        ),
        repeated_readings_table(
            "event_feed", "event_intensity", hours, events, 2, 0.5, rng
        ),
        repeated_readings_table(
            "unrelated_sensor", "reading", hours, rng.standard_normal(n_hours), 2, 0.3, rng
        ),
    ]
    tables_by_name = {t.name: t for t in candidates}

    catalog = SketchCatalog(sketch_size=512, aggregate="mean")
    for table in candidates:
        catalog.add_table(table)
    print(f"indexed {len(catalog)} candidate column pairs (mean aggregation)")

    pair = query_table.column_pairs()[0]
    query_sketch = CorrelationSketch.from_columns(
        *query_table.pair_arrays(pair), 512, hasher=catalog.hasher
    )

    result = JoinCorrelationEngine(catalog).query(query_sketch, k=3, scorer="rp_sez")
    print("\ntop candidates by risk-penalized estimated correlation:")
    for entry in result.ranked:
        print(
            f"  {entry.candidate_id:<45} est r = {entry.stats.r_pearson:+.3f} "
            f"(n = {entry.stats.sample_size})"
        )

    # Join the winning features for real and refit the demand model.
    print("\nrefitting the demand model with discovered features:")
    base_rmse = float(np.std(demand))
    print(f"  baseline (mean predictor) RMSE : {base_rmse:8.2f}")

    features = [np.ones(n_hours)]
    labels: list[str] = []
    index = {h: i for i, h in enumerate(hours)}
    for entry in result.ranked[:2]:
        table_name, rest = entry.candidate_id.split("::")
        key_name, value_name = rest.split("->")
        cand_table = tables_by_name[table_name]
        join = join_columns(
            hours,
            demand,
            cand_table.categorical(key_name).values,
            cand_table.numeric(value_name).values,
        )
        aligned = np.full(n_hours, np.nan)
        for k, v in zip(join.keys, join.y):
            aligned[index[k]] = v
        aligned = np.nan_to_num(aligned, nan=float(np.nanmean(aligned)))
        features.append(aligned)
        labels.append(entry.candidate_id)

    design = np.vstack(features).T
    coef, *_ = np.linalg.lstsq(design, demand, rcond=None)
    residual = demand - design @ coef
    model_rmse = float(np.sqrt(np.mean(residual**2)))
    print(f"  with discovered features RMSE : {model_rmse:8.2f}")
    print(f"  improvement                    : {100 * (1 - model_rmse / base_rmse):.1f}%")
    print(f"  features used: {labels}")


if __name__ == "__main__":
    main()
