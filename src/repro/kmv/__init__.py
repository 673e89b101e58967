"""K-Minimum-Values (bottom-k) substrate and distinct-value estimation.

This subpackage implements the cardinality-estimation substrate the paper
builds on (Section 2.1):

* :class:`~repro.kmv.bottomk.BottomK` — a bounded-size ordered structure
  holding the ``k`` minimum-rank entries, and ``bottom_k_positions``, the
  one-``argpartition`` selection columnar sketch construction uses.
* Estimators (:mod:`repro.kmv.estimators`): the unbiased DV estimator
  ``(k-1) / U(k)`` of Beyer et al. (2007) and the Eq. 1 intersection
  kernel behind containment and join size.

The KMV synopsis itself is the correlation sketch
(:class:`repro.core.sketch.CorrelationSketch`): its distinct-value
estimate is :meth:`~repro.core.sketch.CorrelationSketch.distinct_keys`
and a pair's union, intersection, Jaccard and containment are
:func:`repro.core.estimation.set_estimates` (Section 3.3).
"""

from repro.kmv.bottomk import BottomK
from repro.kmv.estimators import unbiased_dv_estimate

__all__ = [
    "BottomK",
    "unbiased_dv_estimate",
]
