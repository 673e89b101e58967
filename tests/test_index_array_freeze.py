"""Array freeze ≡ ``InvertedIndex.freeze()``, over mutation histories.

The catalog keeps no dict-of-lists index on its write path: the delta
layer is an id set and every CSR is built from the sketches' own sorted
key-hash columns (``SketchCatalog._freeze``: concatenate + one stable
sort). The dict-of-lists :class:`InvertedIndex` of
``scancount_oracle.py`` is the oracle here — the
test maintains one beside the catalog, entry by entry, through arbitrary
add / remove / re-add-same-id / remove-from-delta / compact histories
(empty sketches and a fully tombstoned frozen layer included) and after
every step requires the catalog's delta CSR, and after every compaction
its frozen CSR, to equal the oracle's ``freeze()`` array for array.

``test_property_index_updates.py`` holds the same write path to the
*query* contract (layered answer == rebuilt monolith); this file holds it
to the *layout* contract snapshots persist.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog

from scancount_oracle import InvertedIndex, index_of

HASHER = KeyHasher(seed=5)
SKETCH_SIZE = 12


def _pool():
    rng = np.random.default_rng(21)
    universe = [f"k{i}" for i in range(40)]
    pool = {}
    for i in range(12):
        size = 0 if i % 5 == 4 else int(rng.integers(1, 30))  # two empty sketches
        keys = [universe[j] for j in rng.choice(40, size=size, replace=False)]
        pool[f"s{i:02d}"] = CorrelationSketch.from_columns(
            keys, rng.standard_normal(size), SKETCH_SIZE, hasher=HASHER
        )
    return pool


POOL = _pool()
IDS = sorted(POOL)


def assert_same_csr(got, want):
    assert list(got.docs) == list(want.docs)
    for name in ("vocab", "indptr", "doc_ids", "doc_lengths"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape and (a == b).all(), name


ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(IDS)),
        st.tuples(st.just("remove"), st.sampled_from(IDS)),
        st.tuples(st.just("compact"), st.none()),
        st.tuples(st.just("remove_all"), st.none()),
    ),
    min_size=1,
    max_size=30,
)


@given(history=ops)
@example(  # a 100 % tombstoned frozen layer, folded; then an empty sketch alone
    history=[("add", "s00"), ("add", "s04"), ("add", "s01"), ("compact", None),
             ("remove_all", None), ("compact", None), ("add", "s04"),
             ("compact", None), ("add", "s00"), ("remove", "s00"), ("add", "s00")]
)
@settings(max_examples=120, deadline=None)
def test_array_freeze_equals_dict_of_lists_freeze(history):
    catalog = SketchCatalog(sketch_size=SKETCH_SIZE, hasher=HASHER)
    live, delta = InvertedIndex(), InvertedIndex()
    for op, sid in history:
        if op == "add" and sid not in catalog:
            catalog.add_sketch(sid, POOL[sid])
            # A set, as CorrelationSketch.key_hashes() hands out.
            live.add(sid, POOL[sid].key_hashes())
            delta.add(sid, POOL[sid].key_hashes())
        elif op == "remove" and sid in catalog:
            catalog.remove_sketch(sid)
            live.remove(sid, POOL[sid].key_hashes())
            if sid in delta:
                delta.remove(sid, POOL[sid].key_hashes())
        elif op == "remove_all":  # with a frozen layer: 100 % tombstoned
            for gone in list(catalog):
                catalog.remove_sketch(gone)
                live.remove(gone, POOL[gone].key_hashes())
            delta = InvertedIndex()
        elif op == "compact":
            catalog.compact()
            delta = InvertedIndex()
            assert_same_csr(catalog._frozen_postings, live.freeze())
        assert catalog.delta_size == len(delta)
        assert_same_csr(catalog._delta_postings(), delta.freeze())
        # Dirty or clean, answered from the arrays.
        assert catalog.vocabulary_size == live.vocabulary_size
    assert_same_csr(catalog.frozen_postings(), live.freeze())
    assert_same_csr(index_of(catalog).freeze(), live.freeze())


def test_vocabulary_size_of_a_dirty_catalog_builds_no_index():
    """A catalog with both a delta and tombstones counts the distinct
    hashes of its live sketches (the frozen vocabulary would be wrong)."""
    catalog = SketchCatalog(sketch_size=SKETCH_SIZE, hasher=HASHER)
    catalog.add_sketches((sid, POOL[sid]) for sid in IDS[:8])
    catalog.compact()
    catalog.add_sketches((sid, POOL[sid]) for sid in IDS[8:])
    catalog.remove_sketch(IDS[0])
    expected = len(set().union(*(POOL[sid].key_hashes() for sid in IDS[1:])))
    assert catalog.delta_size and catalog.tombstone_count
    assert catalog.vocabulary_size == expected
