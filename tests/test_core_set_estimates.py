"""``set_estimates`` against the KMV synopsis oracle and the served page.

``set_estimates`` computes §3.3's union, intersection (= join size),
Jaccard and containment of a sketch pair on the sketches' sorted
key-hash columns, through the Eq. 1 kernel the candidate page uses. The
contract:

* equal, bit for bit, to ``kmv_synopsis_oracle``'s row-at-a-time
  ``estimate_*`` whenever both sides overflowed or both saw all their
  keys — the oracle built on the same hashed keys retains the same
  hashes, overflows together with the sketch and estimates the same
  distinct-key count;
* its ``k``, ``U(k)``, ``K∩`` and containment equal a one-candidate
  ``CandidatePage.assemble`` and ``scalar_query_oracle``'s
  ``containment_estimate`` on the same pair, whatever the flags;
* when exactly one side saw all its keys the two ``k`` choices differ
  (pinned below).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import kmv_synopsis_oracle as kmv
from repro.core.estimation import estimate, set_estimates
from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.index.engine import CandidatePage
from scalar_query_oracle import containment_estimate


def _sketch(keys, n, hasher):
    return CorrelationSketch.from_columns(keys, np.zeros(len(keys)), n, hasher=hasher)


@st.composite
def _pairs(draw):
    hasher = KeyHasher(bits=draw(st.sampled_from((32, 64))), seed=draw(st.integers(0, 3)))
    universe = draw(st.integers(1, 60))

    def side():
        # Repeated keys allowed; n = 1 included; empty key lists too.
        keys = draw(st.lists(st.integers(0, universe - 1), max_size=80))
        return [f"k{key}" for key in keys], draw(st.integers(1, 24))

    return hasher, side(), side()


@settings(max_examples=300, deadline=None)
@given(_pairs())
def test_set_estimates_match_oracle_and_page(pair):
    hasher, (a_keys, a_n), (b_keys, b_n) = pair
    a, b = _sketch(a_keys, a_n, hasher), _sketch(b_keys, b_n, hasher)
    syn_a = kmv.KMVSynopsis.from_keys(a_keys, k=a_n, hasher=hasher)
    syn_b = kmv.KMVSynopsis.from_keys(b_keys, k=b_n, hasher=hasher)
    for sketch, syn in ((a, syn_a), (b, syn_b)):
        assert sketch.key_hashes() == syn.key_hashes()
        assert sketch.saw_all_keys == syn.saw_all_keys
        assert sketch.distinct_keys() == syn.distinct_values()

    sets = set_estimates(a, b)
    overlap = len(a.key_hashes() & b.key_hashes())
    assert sets.overlap == overlap
    assert sets.exact == (a.saw_all_keys and b.saw_all_keys)

    catalog = SketchCatalog(sketch_size=b_n, hasher=hasher)
    catalog.add_sketch("b", b)
    page = CandidatePage.assemble(catalog, a.columnar(), [("b", overlap)])
    assert (sets.k, sets.kth_unit_value, sets.k_inter, sets.exact) == (
        int(page.k_len[0]), float(page.kth[0]), int(page.k_inter[0]), bool(page.exact[0])
    )
    assert sets.containment == page.containments(a.distinct_keys())[0]
    assert sets.containment == containment_estimate(a, b, overlap)

    if a.saw_all_keys == b.saw_all_keys:
        assert sets.union == kmv.estimate_union(syn_a, syn_b)
        assert sets.intersection == kmv.estimate_intersection(syn_a, syn_b)
        assert sets.intersection == kmv.estimate_join_size(syn_a, syn_b)
        assert sets.jaccard == kmv.estimate_jaccard(syn_a, syn_b)
        assert sets.containment == kmv.estimate_containment(syn_a, syn_b)


def test_one_side_exact_takes_the_retained_k():
    """A small exact key set against an overflowed one: the oracle
    combines ``k = min(capacities)`` hashes, the served path (and
    ``set_estimates``) ``k = min(retained sizes)``. Both are unbiased;
    the estimates differ."""
    small = [f"k{i}" for i in range(30)]
    large = [f"k{i}" for i in range(200)]
    a, b = _sketch(small, 64, KeyHasher()), _sketch(large, 64, KeyHasher())
    assert a.saw_all_keys and not b.saw_all_keys

    sets = set_estimates(a, b)
    assert sets.k == min(len(a), len(b)) == 30
    assert sets.overlap > 0
    syn_a = kmv.KMVSynopsis.from_keys(small, k=64)
    syn_b = kmv.KMVSynopsis.from_keys(large, k=64)
    assert kmv.merge_synopses(syn_a, syn_b).k == min(syn_a.k, syn_b.k) == 64
    assert sets.intersection != kmv.estimate_intersection(syn_a, syn_b)
    assert sets.union != kmv.estimate_union(syn_a, syn_b)


def test_estimate_reports_set_estimates():
    rng = np.random.default_rng(3)
    keys_a = [f"k{i}" for i in range(3_000)]
    keys_b = [f"k{i}" for i in range(1_500, 6_000)]
    a = CorrelationSketch.from_columns(keys_a, rng.normal(size=3_000), 128)
    b = CorrelationSketch.from_columns(keys_b, rng.normal(size=4_500), 128)
    result, sets = estimate(a, b), set_estimates(a, b)
    assert result.key_overlap == sets.overlap
    assert result.containment_est == sets.containment
    assert result.join_size_est == sets.intersection
