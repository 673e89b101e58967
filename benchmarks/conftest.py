"""Shared fixtures for the benchmark suite.

Collections are generated once per session; every benchmark derives its
workload from these so the whole suite stays laptop-sized while keeping
the distributional shape of the paper's datasets (see DESIGN.md for the
paper-scale vs bench-scale parameters).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.data.opendata import make_nyc_like_collection, make_wbf_like_collection
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
def wbf_collection():
    """WBF-shaped collection (paper and here: 64 tables)."""
    return make_wbf_like_collection(
        n_tables=64, seed=7, key_universe=800, key_fraction_range=(0.03, 0.8)
    )


@pytest.fixture(scope="session")
def nyc_refs(nyc_collection):
    return collection_column_pairs(nyc_collection)


@pytest.fixture(scope="session")
def ranking_report(nyc_refs):
    """Shared Table 1 / Figure 5 evaluation (computed once per session).

    Paper protocol (Section 5.4): every column pair in the NYC collection
    acts as a query retrieving all other joinable column pairs; rankings
    from all scoring functions are compared on the same retrieved lists
    against full-join ground truth.
    """
    from repro.evalharness.ranking_eval import evaluate_ranking

    return evaluate_ranking(
        nyc_refs,
        sketch_size=256,
        max_queries=80,
        min_candidates=3,
        retrieval_depth=100,
        seed=0,
    )


@pytest.fixture(scope="session")
def wbf_refs(wbf_collection):
    return collection_column_pairs(wbf_collection)
