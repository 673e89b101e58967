"""Unit tests for the risk-averse scoring functions (Section 4.4)."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.joined_sample import JoinedSample
from repro.ranking.ranker import rank_candidates
from repro.ranking.scoring import (
    SCORER_NAMES,
    CandidateScores,
    json_float,
    score_candidates,
    unjson_float,
)

from scalar_query_oracle import (
    candidate_scores,
    cib_factor,
    cih_factors,
    rank_records,
    score_columns,
    score_records,
    sez_factor,
)


def _sample(n=100, rho=0.8, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rho * x + math.sqrt(1 - rho**2) * rng.standard_normal(n)
    return JoinedSample(
        key_hashes=np.arange(n, dtype=np.uint64),
        x=x,
        y=y,
        x_range=(float(x.min()), float(x.max())),
        y_range=(float(y.min()), float(y.max())),
    )


def _stats(r_p=0.8, r_b=0.78, n=100, sez=0.9, cib=0.8, hfd_len=1.5, jc_est=0.5, jc=0.6):
    return CandidateScores(
        r_pearson=r_p,
        r_bootstrap=r_b,
        sample_size=n,
        sez_factor=sez,
        cib_factor=cib,
        hfd_ci_length=hfd_len,
        containment_est=jc_est,
        containment_true=jc,
    )


class TestFactors:
    def test_sez_formula(self):
        assert sez_factor(103) == pytest.approx(1 - 0.1)
        assert sez_factor(4) == 0.0
        assert sez_factor(0) == 0.0  # clamped at n=4

    def test_sez_monotone_in_n(self):
        values = [sez_factor(n) for n in (4, 10, 100, 1000)]
        assert values == sorted(values)

    def test_cib_formula(self):
        assert cib_factor(0.2, 0.6) == pytest.approx(1 - 0.2)
        assert cib_factor(-1.0, 1.0) == 0.0
        assert cib_factor(math.nan, 0.5) == 0.0

    def test_cib_floored_at_zero(self):
        assert cib_factor(-2.0, 2.0) == 0.0

    def test_cih_min_max_normalization(self):
        factors = cih_factors([1.0, 2.0, 3.0])
        assert factors == [1.0, 0.5, 0.0]

    def test_cih_nan_gets_zero(self):
        factors = cih_factors([1.0, math.nan, 3.0])
        assert factors[1] == 0.0
        assert factors[0] == 1.0

    def test_cih_degenerate_all_equal(self):
        assert cih_factors([2.0, 2.0]) == [1.0, 1.0]

    def test_cih_all_nan(self):
        assert cih_factors([math.nan, math.nan]) == [0.0, 0.0]


class TestScoreCandidates:
    def test_unknown_scorer(self):
        with pytest.raises(ValueError, match="unknown scorer"):
            score_candidates(score_columns([_stats()]), "tfidf")

    def test_rp_is_absolute_correlation(self):
        scores = score_candidates(
            score_columns([_stats(r_p=-0.7), _stats(r_p=0.3)]), "rp"
        )
        assert scores == [0.7, 0.3]

    def test_nan_estimates_score_zero(self):
        scores = score_candidates(score_columns([_stats(r_p=math.nan)]), "rp")
        assert scores == [0.0]

    def test_rp_sez_penalizes(self):
        scores = score_candidates(
            score_columns([_stats(r_p=0.8, sez=0.5)]), "rp_sez"
        )
        assert scores == [pytest.approx(0.4)]

    def test_rb_cib_uses_bootstrap_estimate(self):
        scores = score_candidates(
            score_columns([_stats(r_p=0.0, r_b=-0.9, cib=0.5)]), "rb_cib"
        )
        assert scores == [pytest.approx(0.45)]

    def test_rp_cih_list_normalization(self):
        stats = score_columns(
            [_stats(r_p=0.8, hfd_len=1.0), _stats(r_p=0.8, hfd_len=3.0)]
        )
        scores = score_candidates(stats, "rp_cih")
        assert scores[0] == pytest.approx(0.8)  # min CI length: no penalty
        assert scores[1] == pytest.approx(0.0)  # max CI length: full penalty

    def test_jc_scorers(self):
        stats = score_columns([_stats(jc=0.6, jc_est=0.4)])
        assert score_candidates(stats, "jc") == [0.6]
        assert score_candidates(stats, "jc_est") == [0.4]

    def test_jc_nan_truth_scores_zero(self):
        assert score_candidates(score_columns([_stats(jc=math.nan)]), "jc") == [0.0]

    def test_random_scorer_range_and_determinism(self):
        stats = score_columns([_stats() for _ in range(20)])
        scores = score_candidates(stats, "random", rng=np.random.default_rng(5))
        assert all(0.0 <= s <= 1.0 for s in scores)
        again = score_candidates(stats, "random", rng=np.random.default_rng(5))
        assert scores == again

    def test_all_scorer_names_run(self):
        stats = score_columns([_stats(), _stats(r_p=0.2)])
        for name in SCORER_NAMES:
            scores = score_candidates(stats, name, rng=np.random.default_rng(0))
            assert len(scores) == 2


_NAN = math.nan
_unit = st.floats(0.0, 1.0)
_r = st.one_of(st.floats(-1.0, 1.0), st.just(_NAN))
# Few distinct lengths, so ties and all-equal lists (span <= 0) are common.
_length = st.one_of(
    st.sampled_from([0.5, 2.0, _NAN, math.inf]),
    st.floats(0.0, 1e6),
)


@st.composite
def _record_lists(draw):
    count = draw(st.integers(0, 12))
    records = [
        CandidateScores(
            r_pearson=draw(_r),
            r_bootstrap=draw(_r),
            sample_size=draw(st.integers(0, 500)),
            sez_factor=draw(_unit),
            cib_factor=draw(_unit),
            hfd_ci_length=draw(_length),
            containment_est=draw(_unit),
            containment_true=draw(st.one_of(_unit, st.just(_NAN))),
        )
        for _ in range(count)
    ]
    ids = draw(st.permutations([f"c{i:02d}" for i in range(count)]))
    return list(ids), records


def _bits(values) -> list:
    """Bit patterns (so -0.0 != 0.0); every NaN is one token."""
    return ["nan" if v != v else struct.pack("<d", v) for v in values]


def _record(r=0.5, hfd_len=1.0):
    return _stats(r_p=r, r_b=r, hfd_len=hfd_len, jc=r, jc_est=0.5)


class TestColumnarScoringMatchesRecords:
    """``score_candidates`` is column arithmetic over ``ScoreColumns``; the
    per-record Python-float scorer it replaced is the oracle, bit for bit,
    and ``rank_candidates`` orders exactly as ranking the records does."""

    @settings(max_examples=300, deadline=None)
    @given(_record_lists(), st.sampled_from(SCORER_NAMES), st.integers(0, 2**32 - 1))
    @example(([], []), "rp_cih", 0)  # empty list
    @example((["c00"], [_record()]), "rp_cih", 0)  # one candidate
    @example(
        (["c00", "c01"], [_record(_NAN, _NAN), _record(_NAN, _NAN)]), "rp_cih", 0
    )  # all-NaN
    @example(
        (["c01", "c00"], [_record(0.3, 2.0), _record(-0.7, 2.0)]), "rp_cih", 0
    )  # all-equal lengths
    @example(
        (["c00", "c01"], [_record(0.3, math.inf), _record(0.9, 1.0)]), "rp_cih", 0
    )  # an infinite length
    def test_scores_and_order_bit_identical(self, lists, scorer, seed):
        ids, records = lists
        columns = score_columns(records)
        got = score_candidates(columns, scorer, rng=np.random.default_rng(seed))
        want = score_records(records, scorer, rng=np.random.default_rng(seed))
        assert _bits(got) == _bits(want)

        ranked = rank_candidates(ids, columns, scorer, rng=np.random.default_rng(seed))
        oracle = rank_records(ids, records, scorer, rng=np.random.default_rng(seed))
        assert [e.candidate_id for e in ranked] == [e.candidate_id for e in oracle]
        assert _bits([e.score for e in ranked]) == _bits([e.score for e in oracle])


class TestCandidateScores:
    def test_from_real_sample(self):
        sample = _sample(n=200, rho=0.9)
        stats = candidate_scores(sample, containment_est=0.7)
        assert abs(stats.r_pearson - 0.9) < 0.1
        assert abs(stats.r_bootstrap - stats.r_pearson) < 0.1
        assert stats.sample_size == 200
        assert 0.0 < stats.sez_factor < 1.0
        assert 0.0 <= stats.cib_factor <= 1.0
        assert stats.hfd_ci_length > 0.0
        assert stats.containment_est == 0.7

    def test_empty_sample(self):
        sample = JoinedSample(
            key_hashes=np.array([], dtype=np.uint64),
            x=np.array([]),
            y=np.array([]),
        )
        stats = candidate_scores(sample)
        assert math.isnan(stats.r_pearson)
        assert math.isnan(stats.r_bootstrap)
        assert stats.sez_factor == 0.0
        assert stats.cib_factor == 0.0

    def test_deterministic_without_rng(self):
        sample = _sample(n=50)
        a = candidate_scores(sample)
        b = candidate_scores(sample)
        assert a == b

    def test_larger_sample_lower_risk(self):
        small = candidate_scores(_sample(n=10, seed=1))
        large = candidate_scores(_sample(n=500, seed=1))
        assert large.sez_factor > small.sez_factor
        assert large.hfd_ci_length < small.hfd_ci_length


class TestJsonFloat:
    """The strict-JSON float encoding the whole wire format rides on:
    no value json_float produces may need Python's non-standard
    NaN/Infinity literals, and unjson_float must invert it exactly."""

    def test_finite_pass_through(self):
        for value in (0.0, -0.0, 1.5, -2.75e300, 5e-324):
            assert json_float(value) == value
            assert unjson_float(json_float(value)) == value

    def test_nan_encodes_as_none(self):
        assert json_float(math.nan) is None
        assert math.isnan(unjson_float(None))

    def test_infinities_encode_as_sentinels(self):
        assert json_float(math.inf) == "Infinity"
        assert json_float(-math.inf) == "-Infinity"
        assert unjson_float("Infinity") == math.inf
        assert unjson_float("-Infinity") == -math.inf

    def test_every_encoding_is_strict_json(self):
        import json

        for value in (math.nan, math.inf, -math.inf, 1.25):
            json.dumps(json_float(value), allow_nan=False)

    def test_unjson_rejects_garbage_strings(self):
        with pytest.raises(ValueError, match="not a JSON float"):
            unjson_float("banana")

    def test_stats_with_infinite_ci_round_trip(self):
        stats = _stats(hfd_len=math.inf)
        import json

        payload = json.loads(
            json.dumps(stats.to_dict(), allow_nan=False)
        )
        assert CandidateScores.from_dict(payload) == stats
