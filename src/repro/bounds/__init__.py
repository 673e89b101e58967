"""Confidence-interval bounds for sketch-based correlation estimates.

Three families, trading assumptions against cost (Sections 4.2–4.3):

* **Fisher z** (:mod:`repro.correlation.fisher`) — assumes bivariate
  normality; costs O(1); only needs the sample size.
* **Hoeffding** (:mod:`repro.bounds.hoeffding`) — distribution-free; costs
  O(n); needs the column value ranges (collected during sketch
  construction). The ``hfd`` variant stays informative at small samples.
  Both are column kernels over a page's one centered moment pass.
* **PM1 bootstrap** (:mod:`repro.correlation.bootstrap`) — distribution-
  free; costs hundreds of resamples; the accuracy yardstick.
"""

from repro.bounds.hoeffding import hfd_intervals, hoeffding_intervals
from repro.bounds.intervals import ConfidenceInterval

__all__ = [
    "ConfidenceInterval",
    "hfd_intervals",
    "hoeffding_intervals",
]
