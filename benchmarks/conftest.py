"""Shared fixtures for the benchmark suite.

Collections are generated once per session; every benchmark derives its
workload from these so the whole suite stays laptop-sized while keeping
the distributional shape of the paper's datasets (see DESIGN.md for the
paper-scale vs bench-scale parameters).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.data.opendata import make_nyc_like_collection
from repro.data.workloads import collection_column_pairs

#: Where benchmarks write their regenerated tables/figures.
RESULTS_DIR = Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="shrink benchmark workloads to a CI-sized smoke run "
        "(skips absolute-performance assertions)",
    )


#: Whether this session is a --quick smoke (set once by pytest_configure;
#: the bench files import ``write_result`` from this same module object).
_quick = False


def pytest_configure(config):
    global _quick
    _quick = config.getoption("--quick")


@pytest.fixture(scope="session")
def quick(request) -> bool:
    """True when the suite runs as a --quick smoke (CI) invocation."""
    return request.config.getoption("--quick")


def write_result(name: str, text: str) -> None:
    """Echo a regenerated table/figure to stdout and, at full scale,
    persist it. The files under ``results/`` are checked in as the
    full-scale record, so a ``--quick`` smoke only prints."""
    print(f"\n===== {name} =====\n{text}\n")
    if _quick:
        return
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
