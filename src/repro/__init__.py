"""repro — Correlation Sketches for approximate join-correlation queries.

A full reproduction of "Correlation Sketches for Approximate
Join-Correlation Queries" (Santos, Bessa, Chirigati, Musco, Freire —
SIGMOD 2021). The package answers the question: *given a query column and
its join key, which tables in a large collection join with mine AND
contain a column correlated with mine after the join?* — without ever
computing the joins.

Quickstart::

    from repro import CorrelationSketch, estimate

    left = CorrelationSketch.from_columns(dates, fatalities, n=256)
    right = CorrelationSketch.from_columns(other_dates, precipitation, n=256)
    result = estimate(left, right)           # no join of the full tables
    print(result.correlation, result.hoeffding)

Subpackages
-----------
``repro.core``
    Correlation Sketches, sketch joins, the estimation pipeline.
``repro.hashing``
    MurmurHash3 + Fibonacci hashing (the ``h`` / ``h_u`` of the paper).
``repro.kmv``
    Bottom-k selection, DV and Eq. 1 estimators, the HLL baseline.
``repro.correlation``
    Pearson / Spearman / RIN / Qn / PM1-bootstrap estimators, Fisher z.
``repro.bounds``
    Distribution-free Hoeffding confidence intervals (Section 4.3).
``repro.ranking``
    Risk-averse scoring functions and IR metrics (Section 4.4 / 5.4).
``repro.table``
    Typed tables, CSV with type detection, ground-truth joins.
``repro.index``
    Inverted index, sketch catalog, the top-k query engine.
``repro.serving``
    Sharded catalogs, query routing and the HTTP query service.
``repro.data``
    Synthetic data generators (SBN, NYC-like, WBF-like).
``repro.evalharness``
    Experiment runners behind the benchmark suite.
"""

from repro.bounds import ConfidenceInterval, hfd_interval, hoeffding_interval
from repro.core import (
    CorrelationSketch,
    EstimateResult,
    JoinedSample,
    estimate,
    join_sketches,
    set_estimates,
)
from repro.correlation import (
    ESTIMATORS,
    fisher_interval,
    pearson,
    pm1_bootstrap,
    qn_correlation,
    rin,
    spearman,
)
from repro.index import (
    JoinCorrelationEngine,
    QueryOptions,
    QueryResult,
    SketchCatalog,
)
from repro.ranking import SCORER_NAMES, rank_candidates
from repro.serving import QuerySession, ShardRouter, ShardedCatalog
from repro.table import Table, read_csv, read_csv_text

__version__ = "1.0.0"

__all__ = [
    "ConfidenceInterval",
    "CorrelationSketch",
    "ESTIMATORS",
    "EstimateResult",
    "JoinCorrelationEngine",
    "JoinedSample",
    "QueryOptions",
    "QueryResult",
    "QuerySession",
    "SCORER_NAMES",
    "ShardRouter",
    "ShardedCatalog",
    "SketchCatalog",
    "Table",
    "estimate",
    "fisher_interval",
    "hfd_interval",
    "hoeffding_interval",
    "join_sketches",
    "pearson",
    "pm1_bootstrap",
    "qn_correlation",
    "rank_candidates",
    "read_csv",
    "read_csv_text",
    "rin",
    "set_estimates",
    "spearman",
    "__version__",
]
