"""Example 1 from the paper: what correlates with traffic fatalities?

Simulates the Vision Zero scenario: an analyst holds a daily traffic-
fatalities table and searches an open-data portal for datasets that (a)
join on date and (b) contain a column correlated with fatalities. The
portal is simulated as a set of CSV files — active CitiBike rides and
precipitation are planted as genuinely correlated signals, buried among
unrelated datasets (restaurant inspections, film permits, ...).

The example runs the full production path: CSV → type detection →
sketch catalog (offline indexing) → top-k join-correlation query.

Run with:  python examples/traffic_fatalities.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import CorrelationSketch, JoinCorrelationEngine, SketchCatalog, read_csv
from repro.data.keygen import date_keys


def build_portal(portal_dir: Path, rng: np.random.Generator) -> Path:
    """Write the simulated open-data portal (CSV files) to disk."""
    n_days = 1096  # three years of daily data
    dates = date_keys(n_days, start_year=2018)

    # Latent daily factors driving the correlated signals.
    weather = rng.standard_normal(n_days)       # wet / dry days
    activity = rng.standard_normal(n_days)      # how busy the streets are

    def write(name: str, column: str, values: np.ndarray) -> None:
        lines = [f"date,{column}"]
        lines += [f"{d},{v:.4f}" for d, v in zip(dates, values)]
        (portal_dir / name).write_text("\n".join(lines) + "\n")

    # The analyst's own dataset: fatalities respond to both factors.
    fatalities = (
        3.0
        + 1.2 * activity
        + 0.9 * weather
        + 0.8 * rng.standard_normal(n_days)
    )
    write("traffic_fatalities.csv", "daily_fatalities", fatalities)

    # Planted correlated datasets.
    write(
        "citibike_rides.csv",
        "active_bikes",
        20_000 + 4_000 * activity + 1_500 * rng.standard_normal(n_days),
    )
    write(
        "precipitation.csv",
        "rain_mm",
        np.maximum(0.0, 4.0 + 3.0 * weather + 1.0 * rng.standard_normal(n_days)),
    )
    # Unrelated datasets (joinable on date, not correlated).
    write("restaurant_inspections.csv", "inspections", rng.poisson(40, n_days).astype(float))
    write("film_permits.csv", "permits", rng.poisson(12, n_days).astype(float))
    write("311_noise_complaints.csv", "complaints", rng.poisson(300, n_days).astype(float))
    # Not even joinable: different key universe entirely.
    zip_lines = ["zipcode,population"] + [
        f"{10000 + i},{rng.integers(5_000, 90_000)}" for i in range(150)
    ]
    (portal_dir / "census_population.csv").write_text("\n".join(zip_lines) + "\n")
    return portal_dir / "traffic_fatalities.csv"


def main() -> None:
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        portal_dir = Path(tmp)
        query_csv = build_portal(portal_dir, rng)

        print("indexing the portal (offline, one pass per column pair)...")
        catalog = SketchCatalog(sketch_size=256)
        for csv_path in sorted(portal_dir.glob("*.csv")):
            if csv_path == query_csv:
                continue
            catalog.add_table(read_csv(csv_path))
        print(f"  indexed {len(catalog)} column-pair sketches")

        # Build the query sketch from the analyst's table.
        query_table = read_csv(query_csv)
        pair = query_table.column_pairs()[0]
        query_sketch = CorrelationSketch.from_columns(
            *query_table.pair_arrays(pair), 256, hasher=catalog.hasher, name=pair.pair_id
        )

        print(
            "\nquery: tables joinable with traffic_fatalities.csv on date, "
            "ranked by correlation with daily_fatalities\n"
        )
        engine = JoinCorrelationEngine(catalog)
        # rp_sez (Fisher-z penalty) rather than rp_cih here: the Hoeffding
        # CI length depends on the *combined* value range of both columns
        # (Section 4.3), so with candidates on wildly different scales
        # (rain in mm vs bike counts in the tens of thousands) and only a
        # handful of candidates, the cih min-max normalization would zero
        # out large-scale columns. With ~100 candidates of comparable
        # scale — the paper's regime — rp_cih is the best ranker (see
        # benchmarks/bench_table1.py).
        result = engine.query(query_sketch, k=6, scorer="rp_sez")

        header = f"{'rank':<5}{'column pair':<50}{'score':>8}{'est r':>8}{'n':>6}"
        print(header)
        print("-" * len(header))
        for rank, entry in enumerate(result.ranked, start=1):
            print(
                f"{rank:<5}{entry.candidate_id:<50}{entry.score:>8.3f}"
                f"{entry.stats.r_pearson:>8.3f}{entry.stats.sample_size:>6}"
            )
        print(
            f"\nquery latency: {result.total_seconds * 1000:.1f} ms "
            f"({result.candidates_considered} joinable candidates considered; "
            "census_population.csv was never considered — wrong join key)"
        )


if __name__ == "__main__":
    main()
