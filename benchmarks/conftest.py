"""Shared fixtures for ``bench_ablation_retrieval.py``.

The collection is generated once per session; it keeps the distributional
shape of the paper's NYC Open Data corpus at a laptop-sized table count.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.data.opendata import make_nyc_like_collection
from repro.data.workloads import collection_column_pairs

#: Where benchmarks write their regenerated tables/figures.
RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    """Echo a regenerated table/figure to stdout and persist it under
    ``results/`` (checked in as the full-scale record)."""
    print(f"\n===== {name} =====\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")


@pytest.fixture(scope="session")
def nyc_collection():
    """NYC-Open-Data-shaped collection (paper: 1,505 tables; here 80).

    The wide key-fraction range produces a realistic mix of join sizes —
    many tiny sketch-join samples (the false-positive regime of Figure 3)
    alongside large ones.
    """
    return make_nyc_like_collection(
        n_tables=80, seed=42, key_universe=4000, key_fraction_range=(0.02, 0.7)
    )


@pytest.fixture(scope="session")
def nyc_refs(nyc_collection):
    return collection_column_pairs(nyc_collection)
