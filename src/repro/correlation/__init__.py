"""Correlation estimators and their sampling-error statistics.

Implements the five estimators the paper evaluates (Section 5.3) —
Pearson, Spearman, RIN (rankit), robust Qn and PM1 bootstrap — plus
Fisher's z machinery (Section 4.2). All estimators operate on paired numpy
arrays and return NaN when the correlation is undefined.
"""

from repro.correlation.bootstrap import (
    BATCH_ROUND_REPLICATES,
    PM1_REPLICATES,
    BootstrapResult,
    pm1_bootstrap,
    pm1_interval,
    pm1_interval_page,
)
from repro.correlation.estimators import (
    ESTIMATORS,
    get_estimator,
    population_reference,
)
from repro.correlation.fisher import (
    FisherInterval,
    clamped_fisher_se,
    fisher_interval,
    fisher_se,
    fisher_z,
    inverse_fisher_z,
)
from repro.correlation.pearson import pearson
from repro.correlation.qn import qn_correlation, qn_scale
from repro.correlation.ranks import average_ranks, rankit
from repro.correlation.rin import rin
from repro.correlation.spearman import spearman

__all__ = [
    "BATCH_ROUND_REPLICATES",
    "ESTIMATORS",
    "PM1_REPLICATES",
    "BootstrapResult",
    "FisherInterval",
    "average_ranks",
    "clamped_fisher_se",
    "fisher_interval",
    "fisher_se",
    "fisher_z",
    "get_estimator",
    "inverse_fisher_z",
    "pearson",
    "pm1_bootstrap",
    "pm1_interval",
    "pm1_interval_page",
    "population_reference",
    "qn_correlation",
    "qn_scale",
    "rankit",
    "rin",
    "spearman",
]
