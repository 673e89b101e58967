"""Risk-averse scoring functions for ranked correlation discovery (§4.4).

The framework (Eq. 5) scores a candidate by ``|r̂| · (1 − risk)`` where
``risk ∈ [0, 1]`` measures the dispersion of the estimate. Three
penalization factors instantiate it:

* ``sez = 1 − 1/sqrt(max(4, n) − 3)`` — Fisher z standard error (§4.2);
* ``cib = 1 − (ρ^high_PM1 − ρ^low_PM1)/2`` — PM1 bootstrap CI length;
* ``cih = 1 − (ci_len − ci_min)/(ci_max − ci_min)`` — HFD Hoeffding CI
  length, min-max normalized *within the ranked list* (so it is computed
  by the ranker, not per candidate).

yielding the paper's four scoring functions

    s1 = r_p            s2 = r_p · sez
    s3 = r_b · cib      s4 = r_p · cih

with ``r_p`` the absolute Pearson estimate and ``r_b`` the absolute PM1
bootstrap estimate. NaN estimates score 0 (a candidate whose correlation
cannot even be estimated is ranked last, tied with zero-correlation ones).

A page is scored from one centered moment pass
(:func:`repro.correlation.pearson.page_moments`, nine segment
reductions): ``r_p`` and the HFD length behind ``cih`` both read it, and
``sez`` needs only the sample sizes.

Scorer names
------------
:data:`SCORER_NAMES` is the registry every entry point accepts — the CLI's
``repro-sketch query --scorer``, :meth:`JoinCorrelationEngine.query
<repro.index.engine.JoinCorrelationEngine.query>` and
:func:`repro.ranking.ranker.rank_candidates`:

==========  ============================================================
name        meaning (paper §4.4 / §5.4 unless noted)
==========  ============================================================
``rp``      ``s1`` — absolute Pearson estimate, no risk penalty
``rp_sez``  ``s2`` — Pearson discounted by the Fisher-z standard error
            (§4.2); cheap, sample-size-aware
``rb_cib``  ``s3`` — PM1 bootstrap estimate discounted by its bootstrap
            CI length; the most accurate and by far the most expensive
``rp_cih``  ``s4`` — Pearson discounted by the Hoeffding CI length
            (§4.3), min-max normalized over the ranked list; the paper's
            recommended latency/quality trade-off and the CLI default
``jc``      exact query-key containment when ground truth is available
            (joinability baseline, §5.4)
``jc_est``  sketch-estimated containment (the deployable joinability
            baseline)
``random``  uniform-random scores (ranking-quality floor, §5.4)
==========  ============================================================
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from repro.bounds.hoeffding import hfd_intervals
from repro.correlation.bootstrap import pm1_interval, pm1_interval_page
from repro.correlation.pearson import page_moments
from repro.core.joined_sample import JoinedSamplePage

SCORER_NAMES = ("rp", "rp_sez", "rb_cib", "rp_cih", "jc", "jc_est", "random")

#: How scoring runs the PM1 bootstrap across a candidate page:
#: ``"batched"`` (default) drives all candidates through the
#: cross-candidate engine (:func:`repro.correlation.bootstrap
#: .pm1_interval_page` — shared draws per stopping round, adaptive
#: early stopping, one masked tensor pass); ``"compat"`` reproduces the
#: per-candidate rng stream bit-for-bit (one 599-replicate
#: :func:`~repro.correlation.bootstrap.pm1_interval` per candidate, in
#: list order).
RNG_MODES = ("batched", "compat")


def _check_rng_mode(rng_mode: str) -> None:
    if rng_mode not in RNG_MODES:
        raise ValueError(
            f"unknown rng_mode {rng_mode!r}; expected one of {RNG_MODES}"
        )


@dataclass(frozen=True)
class CandidateScores:
    """One candidate's scoring statistics: the record a ranked entry
    carries (``RankedCandidate.stats``). Scoring reads
    :class:`ScoreColumns`.

    Attributes:
        r_pearson: Pearson estimate from the sketch join (NaN-safe).
        r_bootstrap: PM1 bootstrap estimate (mean of replicates).
        sample_size: sketch-join sample size ``n``.
        sez_factor: the ``sez`` penalization factor.
        cib_factor: the ``cib`` penalization factor.
        hfd_ci_length: HFD interval length (input to ``cih``, which needs
            list-level normalization).
        containment_est: sketch-estimated containment (the ``ĵc`` score).
        containment_true: exact containment if known (the ``jc`` score),
            NaN otherwise.
    """

    r_pearson: float
    r_bootstrap: float
    sample_size: int
    sez_factor: float
    cib_factor: float
    hfd_ci_length: float
    containment_est: float
    containment_true: float

    def to_dict(self) -> dict:
        """Strict-JSON representation (inverse of :meth:`from_dict`).

        Floats survive bit-for-bit (JSON carries ``repr``, which
        round-trips every finite float exactly); NaN and the infinities
        (a legal ``hfd_ci_length`` on degenerate samples) — which strict
        JSON cannot express — use the :func:`json_float` encodings.
        """
        return {
            "r_pearson": json_float(self.r_pearson),
            "r_bootstrap": json_float(self.r_bootstrap),
            "sample_size": self.sample_size,
            "sez_factor": json_float(self.sez_factor),
            "cib_factor": json_float(self.cib_factor),
            "hfd_ci_length": json_float(self.hfd_ci_length),
            "containment_est": json_float(self.containment_est),
            "containment_true": json_float(self.containment_true),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CandidateScores":
        return cls(
            r_pearson=unjson_float(payload["r_pearson"]),
            r_bootstrap=unjson_float(payload["r_bootstrap"]),
            sample_size=int(payload["sample_size"]),
            sez_factor=unjson_float(payload["sez_factor"]),
            cib_factor=unjson_float(payload["cib_factor"]),
            hfd_ci_length=unjson_float(payload["hfd_ci_length"]),
            containment_est=unjson_float(payload["containment_est"]),
            containment_true=unjson_float(payload["containment_true"]),
        )


@dataclass(frozen=True, eq=False)
class ScoreColumns(Sequence):
    """A candidate list's statistics, one array per
    :class:`CandidateScores` field: a ``Sequence[CandidateScores]``.

    What :func:`candidate_scores_batch` returns. Scoring and ranking read
    the columns; an integer index builds that candidate's record on
    demand and a slice is a view of the same arrays, so a ranked top-k
    costs k records however long the candidate list was.
    """

    r_pearson: np.ndarray
    r_bootstrap: np.ndarray
    sample_size: np.ndarray
    sez_factor: np.ndarray
    cib_factor: np.ndarray
    hfd_ci_length: np.ndarray
    containment_est: np.ndarray
    containment_true: np.ndarray

    def __len__(self) -> int:
        return self.r_pearson.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ScoreColumns(
                *(getattr(self, f.name)[index] for f in fields(self))
            )
        return self.records([range(len(self))[index]])[0]

    def records(self, rows: Sequence[int]) -> list[CandidateScores]:
        """The candidates at ``rows`` as :class:`CandidateScores` records."""
        rows = np.asarray(rows, dtype=np.int64)
        # One shared NaN object, so records of equal candidates compare
        # equal field by field (``nan == nan`` only holds by identity).
        columns = (getattr(self, f.name)[rows].tolist() for f in fields(self))
        canonical = ([math.nan if v != v else v for v in col] for col in columns)
        return [CandidateScores(*values) for values in zip(*canonical)]


def json_float(value: float) -> float | str | None:
    """Strict-JSON float encoding: finite floats unchanged.

    Strict JSON has no token for the IEEE specials, and Python's default
    encoder would emit the non-standard ``NaN``/``Infinity`` literals
    that non-Python clients reject — so NaN encodes as ``None`` and the
    infinities as the string sentinels ``"Infinity"``/``"-Infinity"``
    (:func:`unjson_float` restores all three).
    """
    value = float(value)
    if math.isnan(value):
        return None
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return value


def unjson_float(value: float | str | None) -> float:
    """Inverse of :func:`json_float`: decode the NaN/infinity encodings."""
    if value is None:
        return math.nan
    if isinstance(value, str):
        if value == "Infinity":
            return math.inf
        if value == "-Infinity":
            return -math.inf
        raise ValueError(f"not a JSON float encoding: {value!r}")
    return float(value)


def candidate_scores_batch(
    page: JoinedSamplePage,
    *,
    containment_ests: Sequence[float] | None = None,
    containment_trues: Sequence[float] | None = None,
    alpha: float = 0.05,
    rng: np.random.Generator | None = None,
    with_bootstrap: bool = True,
    rng_mode: str = "batched",
) -> ScoreColumns:
    """Every scoring statistic of a candidate page, as columns.

    The query pipeline's scoring stage: Pearson, Fisher-z SE and
    Hoeffding-CI statistics for *all* candidates, with no per-candidate
    Python. Pearson's ``r`` and the HFD length
    (:func:`repro.bounds.hoeffding.hfd_intervals`) both read the page's
    one moment pass (:func:`repro.correlation.pearson.page_moments`,
    nine segment reductions over the CSR sample arrays). An empty
    sample gets NaN Pearson and the vacuous ``[-1, 1]`` Hoeffding
    interval (length 2).

    The PM1 bootstrap — when ``with_bootstrap`` — follows ``rng_mode``
    (see :func:`apply_bootstrap`).

    Args:
        page: the NaN-filtered joined samples, one per candidate
            (``CandidatePage.samples``).
        containment_ests: per-candidate ``ĵc`` estimates (default 0.0).
        containment_trues: per-candidate exact containments (default NaN).
        alpha: miscoverage level for the HFD interval.
        rng: generator for the PM1 bootstrap. When None, ``"compat"``
            falls back to per-sample seeded defaults and ``"batched"`` to
            the batch engine's fixed-seed default — both deterministic.
        with_bootstrap: compute ``r_b``/``cib``. The PM1 bootstrap is by
            far the most expensive statistic (hundreds of resamples);
            pass False when the scorer in use does not read it — this is
            what keeps query latency interactive (§5.5: Hoeffding CIs
            give bootstrap-quality rankings at a fraction of the cost).
        rng_mode: bootstrap execution contract (see :data:`RNG_MODES`).

    Returns:
        The statistics as columns; indexing yields
        :class:`CandidateScores` records.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    _check_rng_mode(rng_mode)
    count = len(page)
    if containment_ests is None:
        containment_ests = np.zeros(count)
    if containment_trues is None:
        containment_trues = np.full(count, math.nan)
    if len(containment_ests) != count or len(containment_trues) != count:
        raise ValueError(
            f"{count} samples but {len(containment_ests)} containment "
            f"estimates and {len(containment_trues)} true containments"
        )

    lengths = page.sizes
    moments = page_moments(page.x, page.y, page.indptr)
    # -- HFD interval length (§4.3, sample-SD denominator) -----------------
    # Its length as ConfidenceInterval.length takes it, high - low; an
    # empty or degenerate sample gets the vacuous [-1, 1] (2.0).
    hfd_low, hfd_high = hfd_intervals(moments, *page.combined_ranges(), alpha)

    scores = ScoreColumns(
        r_pearson=moments.pearson(),
        r_bootstrap=np.full(count, math.nan),
        sample_size=lengths,
        # -- Fisher-z SE factor (§4.2) --
        sez_factor=1.0 - 1.0 / np.sqrt(np.maximum(4, lengths) - 3.0),
        cib_factor=np.zeros(count),
        hfd_ci_length=hfd_high - hfd_low,
        containment_est=np.array(containment_ests, dtype=np.float64),
        containment_true=np.array(containment_trues, dtype=np.float64),
    )
    if with_bootstrap:
        apply_bootstrap(page, scores, rng, rng_mode)
    return scores


def apply_bootstrap(
    samples: JoinedSamplePage,
    scores: ScoreColumns,
    rng: np.random.Generator | None,
    rng_mode: str = "batched",
) -> None:
    """Write the PM1 bootstrap columns of ``scores`` in place.

    Fills ``r_bootstrap`` / ``cib_factor`` for every eligible candidate
    (at least 2 pairs and a defined Pearson estimate); the others keep
    NaN / 0. ``rng_mode`` selects the contract:

    * ``"batched"`` (default): all eligible candidates are resampled
      together by the cross-candidate engine
      (:func:`repro.correlation.bootstrap.pm1_interval_page`) — shared
      index draws per stopping round, per-candidate adaptive stopping,
      chunked masked tensor arithmetic. Statistically equivalent to the
      per-candidate path and deterministic per ``rng``, but a different
      rng stream; the parity suite pins identical *rankings*.
    * ``"compat"``: one per-candidate :func:`pm1_interval` call in list
      order, consuming ``rng`` draws exactly as a per-candidate scoring
      loop does, so ``r_b``/``cib`` are bit-identical to
      pre-batch-engine behavior.
    """
    _check_rng_mode(rng_mode)
    eligible = (scores.sample_size >= 2) & ~np.isnan(scores.r_pearson)
    if rng_mode == "batched":
        estimate, low, high, _ = pm1_interval_page(
            samples.x, samples.y, samples.indptr, eligible, rng
        )
    else:
        estimate = np.full(len(scores), math.nan)
        low, high = estimate.copy(), estimate.copy()
        for i in np.nonzero(eligible)[0]:
            start, end = samples.indptr[i], samples.indptr[i + 1]
            sample_rng = (
                rng
                if rng is not None
                else np.random.default_rng(
                    int(end - start) * 2_654_435_761 % (2**32) + 17
                )
            )
            boot = pm1_interval(
                samples.x[start:end], samples.y[start:end], rng=sample_rng
            )
            estimate[i], low[i], high[i] = boot.estimate, boot.low, boot.high
    # The cib factor: no interval -> 0, else 1 - length/2 floored at 0.
    with np.errstate(invalid="ignore"):
        cib = np.maximum(0.0, 1.0 - (high - low) / 2.0)
    scores.r_bootstrap[:] = estimate
    scores.cib_factor[:] = np.where(np.isnan(low) | np.isnan(high), 0.0, cib)


def _cih_factors(lengths: np.ndarray) -> np.ndarray:
    """The ``cih`` factor: HFD CI lengths min-max normalized over the list.

    A NaN length gets factor 0 (maximum risk). When every non-NaN length
    is equal the normalization is degenerate and each of them gets 1 (no
    discrimination, no penalty).
    """
    known = ~np.isnan(lengths)
    if not known.any():
        return np.zeros(lengths.shape)
    lo, hi = lengths[known].min(), lengths[known].max()
    span = hi - lo
    factors = np.ones(lengths.shape) if span <= 0 else 1.0 - (lengths - lo) / span
    return np.where(known, factors, 0.0)


def score_candidates(
    scores: ScoreColumns,
    scorer: str,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """Apply one named scoring function to a whole candidate list.

    ``cih`` needs the full list for normalization and ``random`` needs a
    generator, so scoring is list-at-a-time: column arithmetic over
    ``scores``, where a NaN estimate contributes ``|r̂| = 0``.

    Raises:
        ValueError: for unknown scorer names (see :data:`SCORER_NAMES`).
    """

    def magnitude(r: np.ndarray) -> np.ndarray:
        return np.where(np.isnan(r), 0.0, np.abs(r))

    with np.errstate(invalid="ignore"):
        if scorer == "rp":
            values = magnitude(scores.r_pearson)
        elif scorer == "rp_sez":
            values = magnitude(scores.r_pearson) * scores.sez_factor
        elif scorer == "rb_cib":
            values = magnitude(scores.r_bootstrap) * scores.cib_factor
        elif scorer == "rp_cih":
            values = magnitude(scores.r_pearson) * _cih_factors(scores.hfd_ci_length)
        elif scorer == "jc":
            truth = scores.containment_true
            values = np.where(np.isnan(truth), 0.0, truth)
        elif scorer == "jc_est":
            values = scores.containment_est
        elif scorer == "random":
            if rng is None:
                rng = np.random.default_rng()
            values = rng.uniform(0.0, 1.0, size=len(scores))
        else:
            raise ValueError(
                f"unknown scorer {scorer!r}; expected one of {SCORER_NAMES}"
            )
    return values.tolist()
