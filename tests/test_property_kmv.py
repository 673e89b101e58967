"""Property-based tests for the correlation sketch as a KMV synopsis and
for its set-operation estimates (``set_estimates``)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.estimation import set_estimates
from repro.core.sketch import CorrelationSketch

key_lists = st.lists(
    st.text(alphabet="abcdef012345", min_size=1, max_size=8),
    min_size=0,
    max_size=150,
)


def _sketch(keys, n):
    return CorrelationSketch.from_columns(keys, np.zeros(len(keys)), n)


@given(keys=key_lists, k=st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_size_bounded_and_duplicates_collapse(keys, k):
    sketch = _sketch(keys, k)
    assert len(sketch) <= k
    assert len(sketch) <= len(set(keys))
    again = _sketch(keys + keys, k)
    assert again.key_hashes() == sketch.key_hashes()


@given(keys=key_lists, k=st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_dv_estimate_exact_when_not_overflowed(keys, k):
    sketch = _sketch(keys, k)
    if sketch.saw_all_keys:
        assert sketch.distinct_keys() == len(set(keys))


@given(keys=key_lists)
@settings(max_examples=60, deadline=None)
def test_dv_estimate_positive_when_nonempty(keys):
    est = _sketch(keys, 16).distinct_keys()
    if keys:
        assert est > 0
    else:
        assert est == 0.0


@given(a_keys=key_lists, b_keys=key_lists, k=st.integers(min_value=2, max_value=64))
@settings(max_examples=60, deadline=None)
def test_set_estimates_basic_sanity(a_keys, b_keys, k):
    sets = set_estimates(_sketch(a_keys, k), _sketch(b_keys, k))
    assert sets.union >= 0.0
    assert sets.intersection >= 0.0
    assert sets.intersection <= sets.union + 1e-9
    assert 0.0 <= sets.jaccard <= 1.0
    assert 0.0 <= sets.containment <= 1.0


@given(keys=key_lists, k=st.integers(min_value=2, max_value=64))
@settings(max_examples=60, deadline=None)
def test_self_similarity_is_maximal(keys, k):
    sets = set_estimates(_sketch(keys, k), _sketch(keys, k))
    if keys:
        assert sets.jaccard == 1.0
        assert sets.containment == 1.0


@given(a_keys=key_lists, b_keys=key_lists, k=st.integers(min_value=2, max_value=32))
@settings(max_examples=60, deadline=None)
def test_merge_symmetry(a_keys, b_keys, k):
    a, b = _sketch(a_keys, k), _sketch(b_keys, k)
    ab, ba = set_estimates(a, b), set_estimates(b, a)
    assert ab.k == ba.k
    assert ab.kth_unit_value == ba.kth_unit_value
    assert ab.k_inter == ba.k_inter
    assert (ab.union, ab.intersection, ab.jaccard) == (ba.union, ba.intersection, ba.jaccard)
