"""The columnar candidate page against its per-candidate oracle.

``CandidatePage.assemble`` computes every candidate's sketch join in
page-level passes (a scatter-ordered join), and the page computes Eq. 1
union statistics for any of its rows on demand (one row-wise rank
partition). The contract is *bit-identical* to the
per-candidate reference in :mod:`candidate_page_oracle` — same join
pairs (hash, x, y, order), same ``(k_len, kth, k_inter, exact)`` — on
any ragged page, for either hasher width, however the page is chunked
and however its key hashes collide in the membership table;
and the staged public seams (assemble → containments → batch scoring →
ranking) rank exactly like the engine and the session that string them
together.
"""

import contextlib
import math
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.joined_sample import JoinedSample, JoinedSamplePage
from repro.core.sketch import CorrelationSketch, SketchColumns
from repro.hashing import KeyHasher
from repro.core import joined_sample as kernel_mod
from repro.index.catalog import SketchCatalog
from repro.index.engine import (
    CandidatePage,
    JoinCorrelationEngine,
    retrieve_candidates,
)
from repro.index.options import QueryOptions
from repro.ranking.ranker import rank_candidates
from repro.ranking.scoring import ScoreColumns, candidate_scores_batch
from repro.serving.session import QuerySession
from repro.table.table import table_from_arrays

import candidate_page_oracle as oracle
from scalar_query_oracle import candidate_scores, containment_estimate, page_of


class _Columns:
    """The one catalog method ``assemble`` calls, over a plain dict."""

    def __init__(self, columns: dict[str, SketchColumns]) -> None:
        self._columns = columns

    def sketch_columns(self, sketch_id: str) -> SketchColumns:
        return self._columns[sketch_id]


def _same_floats(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def _assert_page_matches_oracle(query, candidates, page):
    """``page`` was assembled for ``query`` over ``candidates`` (id ->
    sketch, in page order): compare it with the per-candidate oracle."""
    q_cols = query.columnar()
    assert page.ids == list(candidates)
    assert len(page.samples) == len(candidates)
    for i, (sid, candidate) in enumerate(candidates.items()):
        c_cols = candidate.columnar()
        want = oracle.join(q_cols, c_cols)
        got = page.samples[i]
        assert isinstance(got, JoinedSample)
        assert got.key_hashes.tolist() == want.key_hashes.tolist(), sid
        # Bit-identical values in identical order (NaN pairs are gone).
        assert got.x.tobytes() == want.x.tobytes(), sid
        assert got.y.tobytes() == want.y.tobytes(), sid
        assert _same_floats(got.x_range, want.x_range)
        assert _same_floats(got.y_range, want.y_range)
        stats = oracle.union_stats(q_cols, c_cols)
        assert (
            int(page.k_len[i]), float(page.kth[i]),
            int(page.k_inter[i]), bool(page.exact[i]),
        ) == (stats.k_len, stats.kth, stats.k_inter, stats.exact), sid
    overlaps = [
        len(query.key_hashes() & c.key_hashes()) for c in candidates.values()
    ]
    assert page.overlaps.tolist() == overlaps
    expected = [
        containment_estimate(query, c, o)
        for c, o in zip(candidates.values(), overlaps)
    ]
    assert page.containments(query.distinct_keys()).tolist() == expected


def _assemble(query, candidates):
    hits = [
        (sid, len(query.key_hashes() & c.key_hashes()))
        for sid, c in candidates.items()
    ]
    catalog = _Columns({sid: c.columnar() for sid, c in candidates.items()})
    return CandidatePage.assemble(catalog, query.columnar(), hits)


# -- differential: random ragged pages ---------------------------------------

_values = st.one_of(
    st.just(math.nan),
    st.floats(-1e6, 1e6, allow_nan=False, width=32),
)


@st.composite
def _column_pair(draw, universe: int):
    """Keys (a possibly empty subset of a small universe) with values,
    some of them missing."""
    keys = draw(st.lists(st.integers(0, universe - 1), unique=True, max_size=universe))
    values = draw(st.lists(_values, min_size=len(keys), max_size=len(keys)))
    return keys, values


#: Low bits every crafted colliding key hash shares: one membership-table
#: slot for any table of up to 2**16 slots (queries below 512 keys).
_SLOT = 0x2A5A


class _SharedSlotHasher(KeyHasher):
    """The real scheme, except that every key hash with bit 20 set has
    its low 16 bits overwritten by ``_SLOT``: about half the keys land on
    one membership-table slot, so a query's table is anywhere from
    collision-free to mostly shared. Sketch construction only calls
    ``hash_batch``."""

    def hash_batch(self, keys):
        hashes = super().hash_batch(keys)
        wide = hashes.astype(np.uint64)
        forced = (wide >> np.uint64(20)) & np.uint64(1) == 1
        shared = (wide & ~np.uint64(0xFFFF)) | np.uint64(_SLOT)
        return np.where(forced, shared, wide).astype(hashes.dtype)


@st.composite
def _pages(draw):
    bits = draw(st.sampled_from((32, 64)))
    universe = draw(st.integers(1, 40))
    scheme = draw(st.sampled_from((KeyHasher, _SharedSlotHasher)))
    hasher = scheme(bits=bits, seed=draw(st.integers(0, 3)))

    def sketch(name: str) -> CorrelationSketch:
        keys, values = draw(_column_pair(universe))
        # Sizes from 1 up: below the key count the sketch overflows,
        # above it both sides can have seen every key.
        size = draw(st.integers(1, 24))
        return CorrelationSketch.from_columns(
            [f"k{key}" for key in keys], values, size, hasher=hasher, name=name
        )

    query = sketch("query")
    n_candidates = draw(st.integers(0, 7))
    candidates = {f"c{i}": sketch(f"c{i}") for i in range(n_candidates)}
    return query, candidates


@settings(max_examples=150, deadline=None)
@given(_pages())
def test_page_kernel_matches_oracle(page_input):
    query, candidates = page_input
    _assert_page_matches_oracle(query, candidates, _assemble(query, candidates))


@settings(max_examples=40, deadline=None)
@given(_pages(), st.integers(1, 64))
def test_row_chunking_does_not_change_the_page(page_input, cells):
    """Any scratch bound — down to one row per chunk — gives the oracle's
    page: chunks are merged with the page-level ``concat``."""
    query, candidates = page_input
    saved = kernel_mod._PAGE_SCRATCH_CELLS
    kernel_mod._PAGE_SCRATCH_CELLS = cells
    try:
        page = _assemble(query, candidates)
        page.kth  # the union kernel's row blocks, under the same bound
    finally:
        kernel_mod._PAGE_SCRATCH_CELLS = saved
    _assert_page_matches_oracle(query, candidates, page)


# -- the union statistics of any rows are the whole page's at those rows -----


@contextlib.contextmanager
def _union_rows_seen():
    """Record how many rows each call of the union kernel is given."""
    seen: list[int] = []
    real = kernel_mod._union_block

    def counted(union, k_len):
        seen.append(int(k_len.shape[0]))
        return real(union, k_len)

    kernel_mod._union_block = counted
    try:
        yield seen
    finally:
        kernel_mod._union_block = real


def _assert_rows_match_whole_page(fresh, whole, rows, d_query):
    """``fresh`` is ``whole`` (or its equal); ``whole`` has every row's
    union statistics computed."""
    rows = np.asarray(rows, dtype=np.int64)
    with _union_rows_seen() as seen:
        kth, k_inter = fresh.union_statistics(rows)
    assert sum(seen) == rows.size  # only ``rows`` were computed
    assert kth.tobytes() == whole.kth[rows].tobytes()
    assert k_inter.tolist() == whole.k_inter[rows].tolist()
    assert (
        fresh.containments(d_query, rows).tobytes()
        == whole.containments(d_query)[rows].tobytes()
    )


@settings(max_examples=60, deadline=None)
@given(_pages(), st.data())
def test_union_statistics_of_any_rows_are_the_whole_pages(page_input, data):
    """For any rows — any order, repeats allowed — the union kernel
    gives the whole page's ``kth`` / ``k_inter`` at those rows, on the
    assembled page and on one merged from sub-pages with ``concat`` /
    ``take``: NaN values, exact and one-side-exact rows, empty rows and
    ``k_len == 0`` rows under both hash widths."""
    query, candidates = page_input
    whole = _assemble(query, candidates)
    n = len(candidates)
    rows = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=3 * n))
    d_query = query.distinct_keys()
    _assert_rows_match_whole_page(_assemble(query, candidates), whole, rows, d_query)

    names = list(candidates)
    order = data.draw(st.permutations(range(n)))
    cut = data.draw(st.integers(0, n))
    shuffled = [names[i] for i in order]
    merged = CandidatePage.concat([
        _assemble(query, {sid: candidates[sid] for sid in part})
        for part in (shuffled[:cut], shuffled[cut:])
    ]).take(np.argsort(np.asarray(order, dtype=np.int64)))
    assert merged.ids == names
    _assert_rows_match_whole_page(merged, whole, rows, d_query)


@pytest.fixture(scope="module", params=(32, 64))
def deep_page(request):
    """A depth-300 page of 256-hash sketches — exhaustive-pool depth,
    past one row block of the union kernel — with NaN values, empty
    and complete (``k_len == 0`` / exact-side) rows."""
    hasher = KeyHasher(bits=request.param)
    rng = np.random.default_rng(request.param)

    def sketch(keys, name, size=256, nan_share=0.0):
        values = rng.standard_normal(len(keys))
        values[rng.uniform(size=len(keys)) < nan_share] = np.nan
        return CorrelationSketch.from_columns(
            [f"k{k}" for k in keys], values, size, hasher=hasher, name=name
        )

    query = sketch(rng.choice(2000, 600, replace=False), "query", nan_share=0.1)
    candidates = {}
    for i in range(300):
        name = f"c{i:03d}"
        if i % 50 == 7:
            candidates[name] = CorrelationSketch(256, hasher=hasher, name=name)
        elif i % 50 == 11:
            candidates[name] = sketch(rng.choice(2000, 9, replace=False), name)
        else:
            keys = rng.choice(2000, int(rng.integers(100, 700)), replace=False)
            candidates[name] = sketch(keys, name, nan_share=0.2)
    whole = _assemble(query, candidates)
    assert len(kernel_mod._row_chunks(512, 300)) > 1
    assert (whole.k_len == 0).any() and not whole.exact.any()
    return query, candidates, whole


@settings(max_examples=15, deadline=None)
@given(rows=st.lists(st.integers(0, 299), max_size=400))
@example(rows=list(range(299, -1, -1)) + [7, 11, 11])  # three row blocks
def test_union_statistics_of_a_deep_pages_rows(deep_page, rows):
    query, candidates, whole = deep_page
    _assert_rows_match_whole_page(
        _assemble(query, candidates), whole, rows, query.distinct_keys()
    )


# -- differential: the named edge cases, in one page per hasher --------------


@pytest.mark.parametrize("bits", (32, 64))
def test_ragged_page_edge_cases(bits):
    hasher = KeyHasher(bits=bits)
    rng = np.random.default_rng(bits)
    keys = [f"k{i}" for i in range(400)]

    def sketch(picked, size, name, nan_share=0.0):
        values = rng.standard_normal(len(picked))
        values[rng.uniform(size=len(picked)) < nan_share] = np.nan
        return CorrelationSketch.from_columns(
            [keys[i] for i in picked], values, size, hasher=hasher, name=name
        )

    query = sketch(range(0, 300), 64, "query", nan_share=0.1)
    candidates = {
        "overflowed": sketch(range(100, 400), 64, "overflowed"),
        "holey": sketch(range(0, 300), 64, "holey", nan_share=0.3),
        "empty": CorrelationSketch(64, hasher=hasher, name="empty"),
        "small": sketch(range(0, 300, 9), 64, "small"),  # 34 keys < |Q|
        "tiny": sketch([5], 64, "tiny"),
        "disjoint": sketch(range(300, 400), 64, "disjoint"),
        "other-size": sketch(range(0, 400), 17, "other-size"),
    }
    page = _assemble(query, candidates)
    _assert_page_matches_oracle(query, candidates, page)
    assert len(set(page.k_len.tolist())) >= 4  # several k_len in one page
    assert not page.exact.any()

    # Both sides saw all their keys: the exact-overlap shortcut.
    complete = sketch(range(0, 40), 64, "complete")
    assert complete.saw_all_keys
    page = _assemble(complete, candidates)
    _assert_page_matches_oracle(complete, candidates, page)
    assert page.exact.tolist() == [
        c.saw_all_keys for c in candidates.values()
    ] and page.exact.any() and not page.exact.all()

    # Empty query sketch and zero hits.
    empty_query = CorrelationSketch(64, hasher=hasher, name="empty-query")
    _assert_page_matches_oracle(
        empty_query, candidates, _assemble(empty_query, candidates)
    )
    no_hits = _assemble(query, {})
    _assert_page_matches_oracle(query, {}, no_hits)
    assert len(no_hits.samples) == 0 and no_hits.containments(10.0).shape == (0,)


# -- the membership table: forced collisions, counted searches ----------------


class _IdentityHasher(KeyHasher):
    """``h(k)`` is the (integer) key itself, with the scheme's real
    ``h_u`` — the way to put key hashes on chosen membership-table
    slots. Sketch construction only calls ``hash_batch``."""

    def hash_batch(self, keys):
        return np.asarray(keys, dtype=np.uint64)


def _on_slot(rng, count, bits):
    """``count`` distinct key hashes below ``2**bits`` ending in ``_SLOT``."""
    high = rng.choice(1 << min(bits - 16, 40), count, replace=False)
    return (high.astype(np.uint64) << np.uint64(16)) | np.uint64(_SLOT)


@pytest.mark.parametrize("bits", (32, 64))
def test_forced_collisions_match_oracle(bits):
    """Key hashes crafted onto shared membership-table slots — a few
    clashing keys, every query key on one slot, the extreme hash values
    0 and ``2**bits - 1``, an empty query and an empty candidate — give
    the oracle's page bit for bit, whichever way the probe resolves
    them (slot lookup or searching the shared-slot entries)."""
    rng = np.random.default_rng(bits)
    top = (1 << bits) - 1
    hasher = _IdentityHasher(bits=bits)

    def sketch(keys, size, name):
        values = rng.standard_normal(len(keys))
        values[rng.uniform(size=len(keys)) < 0.1] = np.nan
        return CorrelationSketch.from_columns(
            [int(k) for k in keys], values, size, hasher=hasher, name=name
        )

    def page_ok(query, candidates):
        _assert_page_matches_oracle(query, candidates, _assemble(query, candidates))

    ordinary, outsiders = np.split(
        rng.permutation(np.unique(rng.integers(1, top, 400, dtype=np.uint64)))[:360],
        [160],
    )
    clashing = _on_slot(rng, 4, bits)  # a few keys on one slot
    extremes = np.asarray([0, top], dtype=np.uint64)
    query_keys = np.concatenate([ordinary, clashing, extremes])
    # Large enough to keep every key, so the crafted ones are all there.
    query = sketch(query_keys, 256, "query")
    assert kernel_mod._MembershipTable(query.columnar()).shared
    candidates = {
        "clash": sketch(
            np.concatenate([clashing, _on_slot(rng, 6, bits), ordinary[:40]]),
            64, "clash",
        ),
        "clash-overflowed": sketch(
            np.concatenate([clashing, ordinary[:40]]), 24, "clash-overflowed"
        ),
        # Non-members on the slots of 0 and of 2**bits - 1.
        "extremes": sketch(
            np.concatenate([
                extremes, ordinary[40:90],
                np.asarray([1 << 16, top - (1 << 16)], dtype=np.uint64),
            ]),
            64, "extremes",
        ),
        "empty": CorrelationSketch(64, hasher=hasher, name="empty"),
        "mixed": sketch(np.concatenate([query_keys[::3], outsiders]), 96, "mixed"),
    }
    page_ok(query, candidates)
    page_ok(sketch(extremes, 8, "extremes-only"), candidates)

    # Every query key on one slot: its members are searched, the rest
    # of the page is looked up.
    crowded_keys = _on_slot(rng, 80, bits)
    crowded = sketch(crowded_keys, 64, "crowded")
    page_ok(crowded, {
        "members": sketch(np.concatenate([crowded_keys[:30], outsiders]), 96, "m"),
        "few": sketch(crowded_keys[::7], 64, "few"),
        "empty": CorrelationSketch(64, hasher=hasher, name="empty"),
    })

    # An empty query against all of them.
    page_ok(CorrelationSketch(64, hasher=hasher, name="empty-query"), candidates)


def _count_searches(monkeypatch) -> list[int]:
    """Record the needle count of every ``np.searchsorted`` call."""
    needles: list[int] = []
    real = np.searchsorted

    def counted(a, v, *args, **kwargs):
        needles.append(int(np.size(v)))
        return real(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    return needles


def _depth_100_page(rng, query_keys, shared):
    """A query over ``query_keys`` and 100 random 256-hash candidates
    drawing ``shared`` of their 300 keys from it (every sketch
    overflows)."""
    hasher = _IdentityHasher(bits=64)

    def sketch(keys, name):
        return CorrelationSketch.from_columns(
            [int(k) for k in keys], rng.standard_normal(len(keys)), 256,
            hasher=hasher, name=name,
        )

    candidates = {}
    for i in range(100):
        members = rng.choice(query_keys, shared, replace=False)
        others = rng.integers(0, 2**64 - 1, 300 - shared, dtype=np.uint64)
        candidates[f"c{i:03d}"] = sketch(np.concatenate([members, others]), f"c{i:03d}")
    return sketch(query_keys, "query"), candidates


def test_random_page_makes_no_search(monkeypatch):
    """A depth-100 page of 256-hash sketches under a query whose keys own
    their slots is assembled by table lookup alone: no
    ``np.searchsorted`` call at all."""
    rng = np.random.default_rng(11)
    # 300 keys with distinct low 15 bits: whichever 256 the query keeps,
    # each owns its slot of the 2**15-slot table.
    low = rng.choice(1 << 15, 300, replace=False).astype(np.uint64)
    high = rng.integers(0, 2**49, 300, dtype=np.uint64)
    query, candidates = _depth_100_page(rng, (high << np.uint64(15)) | low, 150)
    needles = _count_searches(monkeypatch)
    page = _assemble(query, candidates)
    assert needles == []
    monkeypatch.undo()
    _assert_page_matches_oracle(query, candidates, page)


def test_all_colliding_query_searches_only_its_slot(monkeypatch):
    """Every query key on one slot: the one search made covers exactly
    the page entries on that slot — the members, plus any outsider that
    lands there — not the page."""
    rng = np.random.default_rng(12)
    query, candidates = _depth_100_page(rng, _on_slot(rng, 300, 64), 75)
    entries = np.concatenate([c.columnar().key_hashes for c in candidates.values()])
    mask = kernel_mod._MembershipTable(query.columnar()).mask
    on_slot = int(np.count_nonzero((entries & np.uint64(mask)) == _SLOT & mask))
    needles = _count_searches(monkeypatch)
    page = _assemble(query, candidates)
    assert needles == [on_slot]
    assert on_slot > 0
    monkeypatch.undo()
    _assert_page_matches_oracle(query, candidates, page)


def test_concat_and_take_are_page_level_identities():
    hasher = KeyHasher()
    rng = np.random.default_rng(4)
    query = CorrelationSketch.from_columns(
        np.arange(500), rng.standard_normal(500), 48, hasher=hasher
    )
    candidates = {
        f"c{i}": CorrelationSketch.from_columns(
            rng.choice(700, 300, replace=False), rng.standard_normal(300),
            48, hasher=hasher,
        )
        for i in range(9)
    }
    whole = _assemble(query, candidates)
    names = list(candidates)
    order = rng.permutation(len(names))
    shuffled = {names[i]: candidates[names[i]] for i in order}
    split = [
        _assemble(query, dict(list(shuffled.items())[lo:hi]))
        for lo, hi in ((0, 2), (2, 2), (2, 9))
    ]
    merged = CandidatePage.concat(split).take(np.argsort(order))
    _assert_page_matches_oracle(query, candidates, merged)
    assert merged.samples.indptr.tolist() == whole.samples.indptr.tolist()
    assert merged.samples.x.tobytes() == whole.samples.x.tobytes()


# -- the staged public seams --------------------------------------------------


def _corpus(seed=5, n_tables=14, n_rows=900, sketch_size=64):
    rng = np.random.default_rng(seed)
    keys = [f"k{i}" for i in range(n_rows)]
    base = rng.standard_normal(n_rows)
    catalog = SketchCatalog(sketch_size=sketch_size)
    for t in range(n_tables):
        rho = float(rng.uniform(-1.0, 1.0))
        values = rho * base + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n_rows)
        keep = rng.uniform(size=n_rows) < rng.uniform(0.2, 1.0)
        values[rng.uniform(size=n_rows) < 0.05] = np.nan
        catalog.add_table(
            table_from_arrays(
                f"tab{t:02d}", [k for k, m in zip(keys, keep) if m], values[keep]
            )
        )
    query = CorrelationSketch.from_columns(
        keys, base, sketch_size, hasher=catalog.hasher, name="query"
    )
    return catalog, query


@pytest.mark.parametrize("scorer", ("rp_cih", "rb_cib"))
def test_staged_seams_rank_like_engine_and_session(scorer):
    """What ``benchmarks/record`` replays stage by stage must stay a
    faithful decomposition of ``engine.query`` / ``QuerySession.submit``."""
    catalog, query = _corpus()
    k = 5
    options = QueryOptions(k=k, depth=10, scorer=scorer)
    engine = JoinCorrelationEngine.from_options(catalog, options)

    cols = query.columnar()
    hits = retrieve_candidates(catalog, cols, depth=options.depth)
    page = CandidatePage.assemble(catalog, cols, hits)
    containments = page.containments(query.distinct_keys())
    rng = np.random.default_rng(7)
    stats = candidate_scores_batch(
        page.samples,
        containment_ests=containments,
        rng=rng,
        with_bootstrap=scorer == "rb_cib",
        rng_mode=options.rng_mode,
    )
    staged = rank_candidates(page.ids, stats, scorer, rng=rng)[:k]

    assert len(staged) == k
    assert staged == engine.query(query, k=k, scorer=scorer).ranked
    with QuerySession.for_catalog(catalog, options) as session:
        assert staged == session.submit([query])[0].ranked

    # The seams' shapes: lazily materialised sequences over page arrays.
    assert page.ids == [sid for sid, _ in hits]
    assert isinstance(page.samples, Sequence) and len(page.samples) == len(hits)
    assert all(isinstance(sample, JoinedSample) for sample in page.samples)
    assert isinstance(stats, Sequence) and len(stats) == len(hits)
    assert [s.sample_size for s in stats] == [s.size for s in page.samples]


def test_a_query_computes_union_statistics_for_its_returned_rows():
    """The served pipeline runs Eq. 1's union kernel over the ``k`` rows
    it returns — every row when ``k`` covers the page; ``jc_est``, which
    ranks by it, runs it over every row before ranking."""
    catalog, query = _corpus(seed=7, n_tables=110, n_rows=600)
    engine = JoinCorrelationEngine(catalog, retrieval_depth=100)
    with _union_rows_seen() as seen:
        result = engine.query(query, k=10, scorer="rp_cih")
    assert result.candidates_considered == 100 and len(result.ranked) == 10
    assert seen == [10]
    for scorer, k in (("jc_est", 10), ("rp_cih", 100), ("rp_cih", 150)):
        with _union_rows_seen() as seen:
            engine.query(query, k=k, scorer=scorer)
        assert sum(seen) == 100, (scorer, k)


def test_plain_sample_list_is_lowered_to_the_same_scoring():
    """Scoring reads only the CSR page: a ``list[JoinedSample]`` lowered by
    the oracle's ``page_of`` scores exactly like the page it came from —
    bootstrap columns and rng consumption included — and an empty
    ``concat`` is the empty lowering."""
    catalog, query = _corpus(seed=6)
    cols = query.columnar()
    page = CandidatePage.assemble(
        catalog, cols, retrieve_candidates(catalog, cols, depth=10)
    )
    lowered = page_of(list(page.samples))
    for rng_mode in ("batched", "compat"):
        from_page = candidate_scores_batch(
            page.samples, rng=np.random.default_rng(3), rng_mode=rng_mode
        )
        from_list = candidate_scores_batch(
            lowered, rng=np.random.default_rng(3), rng_mode=rng_mode
        )
        assert isinstance(from_list, ScoreColumns)
        assert list(from_page) == list(from_list)
    assert lowered.indptr.tolist() == page.samples.indptr.tolist()
    assert _same_floats(lowered.y_ranges, page.samples.y_ranges)
    empty, none = JoinedSamplePage.concat([]), page_of([])
    for name in ("key_hashes", "x", "y", "indptr", "x_ranges", "y_ranges"):
        a, b = getattr(empty, name), getattr(none, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
    assert len(candidate_scores_batch(empty)) == 0


def test_combined_range_nan_rules_hold_columnwise():
    """A NaN side of the range is skipped; both NaN stays NaN (and the
    Hoeffding interval is then the vacuous one, as in the scalar path)."""
    nan = (np.nan, np.nan)
    x, y = np.array([1.0, 2.0, 4.0]), np.array([2.0, 1.0, 3.0])
    hashes = np.arange(3, dtype=np.uint64)
    samples = [
        JoinedSample(hashes, x, y, (0.0, 5.0), (1.0, 4.0)),
        JoinedSample(hashes, x, y, nan, (1.0, 4.0)),
        JoinedSample(hashes, x, y, (0.0, 5.0), nan),
        JoinedSample(hashes, x, y, nan, nan),
    ]
    batch = candidate_scores_batch(page_of(samples), with_bootstrap=False)
    for sample, got in zip(samples, batch):
        want = candidate_scores(sample, with_bootstrap=False)
        assert math.isclose(
            got.hfd_ci_length, want.hfd_ci_length, rel_tol=1e-9, abs_tol=1e-12
        )
    assert batch[3].hfd_ci_length == 2.0


# -- scratch is bounded by row chunks ----------------------------------------


def _synthetic_columns(rng, hasher, universe, size) -> SketchColumns:
    picked = np.sort(rng.choice(universe.shape[0], size, replace=False))
    hashes = universe[picked]
    return SketchColumns(
        key_hashes=hashes,
        values=rng.standard_normal(size),
        value_range=(-5.0, 5.0),
        saw_all_keys=False,
        bits=hasher.bits,
        range_preserving=True,
    )


def _assemble_peak_bytes(catalog, query_cols, hits) -> int:
    tracemalloc.start()
    try:
        page = CandidatePage.assemble(catalog, query_cols, hits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(page.ids) == len(hits)
    return peak


def test_deep_page_of_big_sketches_assembles_in_bounded_scratch(monkeypatch):
    """Depth 1000 x sketch size 1024: one pass over the whole page would
    hold ~75 MB of probe, grid and rank-matrix scratch; row chunks keep
    the peak (output page included) under a fixed 8 MB."""
    budget = 8 << 20
    size, depth = 1024, 1000
    hasher = KeyHasher(bits=64)
    rng = np.random.default_rng(0)
    universe = np.unique(rng.integers(0, 2**63, 20_000).astype(np.uint64))
    columns = {
        f"c{i:04d}": _synthetic_columns(rng, hasher, universe, size)
        for i in range(depth)
    }
    query_cols = _synthetic_columns(rng, hasher, universe, size)
    hits = [(sid, 1) for sid in columns]
    catalog = _Columns(columns)

    assert _assemble_peak_bytes(catalog, query_cols, hits) < budget
    # The budget is a real constraint: unchunked, the same page breaks it.
    monkeypatch.setattr(kernel_mod, "_PAGE_SCRATCH_CELLS", 1 << 40)
    assert _assemble_peak_bytes(catalog, query_cols, hits) > budget
