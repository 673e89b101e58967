"""Unit tests for the KMV synopsis oracle and DV estimation."""

import pytest

from kmv_synopsis_oracle import KMVSynopsis, basic_dv_estimate, unbiased_dv_variance
from repro.hashing import KeyHasher
from repro.kmv.estimators import unbiased_dv_estimate


def test_invalid_k():
    with pytest.raises(ValueError, match="positive"):
        KMVSynopsis(0)


def test_small_set_is_exact():
    syn = KMVSynopsis(k=64)
    syn.update_all(f"key-{i}" for i in range(10))
    assert syn.saw_all_keys
    assert syn.distinct_values() == 10.0
    assert len(syn) == 10


def test_duplicates_do_not_inflate():
    syn = KMVSynopsis(k=64)
    syn.update_all(["a", "b", "a", "a", "b", "c"])
    assert syn.distinct_values() == 3.0


def test_overflow_flag_set_on_eviction_or_rejection():
    syn = KMVSynopsis(k=4)
    syn.update_all(f"key-{i}" for i in range(100))
    assert not syn.saw_all_keys
    assert len(syn) == 4


def test_unbiased_estimate_reasonable_accuracy():
    true_d = 50_000
    syn = KMVSynopsis.from_keys((f"key-{i}" for i in range(true_d)), k=1024)
    est = syn.distinct_values()
    assert abs(est - true_d) / true_d < 0.15


def test_basic_vs_unbiased_estimators_differ():
    syn = KMVSynopsis.from_keys((f"k{i}" for i in range(10_000)), k=256)
    basic = syn.distinct_values(estimator="basic")
    unbiased = syn.distinct_values(estimator="unbiased")
    assert basic != unbiased
    # basic = k/U(k) vs unbiased = (k-1)/U(k): fixed ratio.
    assert basic * (256 - 1) / 256 == pytest.approx(unbiased)


def test_unknown_estimator_rejected():
    syn = KMVSynopsis.from_keys(["a"], k=4)
    with pytest.raises(ValueError, match="unknown"):
        syn.distinct_values(estimator="hll")


def test_empty_synopsis_estimates_zero():
    assert KMVSynopsis(8).distinct_values() == 0.0


def test_iteration_ascending_by_unit_value():
    syn = KMVSynopsis.from_keys((f"k{i}" for i in range(100)), k=16)
    units = [u for _kh, u in syn]
    assert units == sorted(units)
    assert syn.kth_unit_value() == units[-1]


def test_synopses_share_hash_choices():
    """Two synopses over overlapping keys retain identical hashes for
    shared keys — the coordination property sketch joins rely on."""
    keys = [f"key-{i}" for i in range(2000)]
    a = KMVSynopsis.from_keys(keys, k=128)
    b = KMVSynopsis.from_keys(keys, k=128)
    assert a.key_hashes() == b.key_hashes()


def test_custom_hasher_respected():
    h = KeyHasher(bits=64, seed=9)
    syn = KMVSynopsis.from_keys(["a", "b"], k=4, hasher=h)
    assert syn.hasher.scheme_id == (64, 9)


class TestDVEstimatorFunctions:
    def test_zero_k(self):
        assert basic_dv_estimate(0, 0.5) == 0.0
        assert unbiased_dv_estimate(0, 0.5) == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            basic_dv_estimate(-1, 0.5)
        with pytest.raises(ValueError):
            unbiased_dv_estimate(-1, 0.5)

    def test_invalid_unit_value_rejected(self):
        with pytest.raises(ValueError):
            basic_dv_estimate(5, 0.0)
        with pytest.raises(ValueError):
            unbiased_dv_estimate(5, 1.5)

    def test_saw_all_short_circuits(self):
        assert basic_dv_estimate(7, 0.9, saw_all=True) == 7.0
        assert unbiased_dv_estimate(7, 0.9, saw_all=True) == 7.0

    def test_k_equals_one_falls_back(self):
        assert unbiased_dv_estimate(1, 0.25) == 4.0

    def test_variance_formula(self):
        assert unbiased_dv_variance(2, 100.0) == float("inf")
        v = unbiased_dv_variance(10, 100.0)
        assert v == pytest.approx(100.0 * (100.0 - 9) / 8)
