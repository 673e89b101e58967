"""Sketch joins: reconstructing a uniform sample of the joined table.

Joining two correlation sketches ``L_X`` and ``L_Y`` on their stored key
hashes yields ``L_{X⋈Y}`` — and by Theorem 1 of the paper, the paired
numeric values in ``L_{X⋈Y}`` are a *uniform random sample* of the paired
values in the full joined table ``T_{X⋈Y}``.

The subtlety (also in the paper's proof) is that only keys ranked below
*both* sketches' thresholds are trustworthy: a key hash present in ``L_X``
but ranked above ``U(k)`` of ``L_Y`` might be absent from ``L_Y`` simply
because it was evicted, not because it is absent from ``T_Y``. Taking the
plain intersection of stored hashes is still correct, because any key in
both sketches necessarily ranks below both thresholds, and any joint key
ranking below both thresholds is necessarily in both sketches. So the
intersection equals "all joint keys with ``g(k)`` below
``min(U_X(k), U_Y(k))``" — a bottom-ranked (hence uniform) subset of the
join keys.

:func:`join_page` is the one sketch join: one query's columns against a
page of candidates' columns in page-level passes, returning a
:class:`PageJoin` — the NaN-filtered samples as one
:class:`JoinedSamplePage` plus Eq. 1's combined-bottom-``k`` statistics.
The query pipeline's candidate page
(:class:`repro.index.engine.CandidatePage`) is such a join; a sketch pair
(:func:`join_pair`, behind :func:`repro.core.estimation.estimate` and
:func:`~repro.core.estimation.set_estimates`) is a page of one. The
dict-set pair join it replaced is the test oracle
``tests/sketch_join_oracle.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.sketch import SketchColumns
from repro.hashing.fibonacci import to_unit_interval_batch
from repro.kmv.estimators import (
    containment_estimate_batch,
    intersection_estimate_batch,
)


@dataclass(frozen=True)
class JoinedSample:
    """Aligned numeric samples reconstructed from two sketches.

    Attributes:
        key_hashes: the joint tuple identifiers, ascending by rank.
        x: numeric values from the left sketch, aligned with ``key_hashes``.
        y: numeric values from the right sketch, aligned with ``key_hashes``.
        x_range: ``(min, max)`` bounds of the left values for the §4.3
            intervals: the column's global range when its aggregate is
            range-preserving on both sides, else the sample's own.
        y_range: the same for the right values.
    """

    key_hashes: np.ndarray
    x: np.ndarray
    y: np.ndarray
    x_range: tuple[float, float] = field(default=(np.nan, np.nan))
    y_range: tuple[float, float] = field(default=(np.nan, np.nan))

    @property
    def size(self) -> int:
        """Number of aligned pairs (the paper's sketch-join sample size)."""
        return int(self.x.shape[0])

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True, eq=False)
class JoinedSamplePage(Sequence):
    """Many joined samples in one CSR block: a ``Sequence[JoinedSample]``.

    Sample ``i`` owns ``indptr[i]:indptr[i + 1]`` of the page-level
    ``key_hashes`` / ``x`` / ``y`` arrays and row ``i`` of the two
    ``(n, 2)`` range arrays. Batch consumers (scoring, the PM1 bootstrap)
    read the arrays directly; indexing builds a zero-copy
    :class:`JoinedSample` view on demand, so a page costs no
    per-candidate objects until somebody asks for one.
    """

    key_hashes: np.ndarray
    x: np.ndarray
    y: np.ndarray
    indptr: np.ndarray
    x_ranges: np.ndarray
    y_ranges: np.ndarray

    @classmethod
    def concat(cls, pages: Sequence["JoinedSamplePage"]) -> "JoinedSamplePage":
        """The pages' samples back to back (one page is returned as is)."""
        if len(pages) == 1:
            return pages[0]
        offsets = np.cumsum([0] + [page.indptr[-1] for page in pages[:-1]])

        def column(name: str, dtype, shape=(0,)) -> np.ndarray:
            parts = [np.empty(shape, dtype=dtype)]
            return np.concatenate(parts + [getattr(page, name) for page in pages])

        return cls(
            key_hashes=column("key_hashes", np.uint64),
            x=column("x", np.float64),
            y=column("y", np.float64),
            indptr=np.concatenate(
                [np.zeros(1, dtype=np.int64)]
                + [page.indptr[1:] + end for page, end in zip(pages, offsets)]
            ),
            x_ranges=column("x_ranges", np.float64, (0, 2)),
            y_ranges=column("y_ranges", np.float64, (0, 2)),
        )

    def take(self, rows: np.ndarray) -> "JoinedSamplePage":
        """The samples at ``rows``, in that order, as a new page."""
        sizes = self.indptr[rows + 1] - self.indptr[rows]
        indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        # Element j of output segment i comes from indptr[rows[i]] + j.
        gather = np.arange(indptr[-1], dtype=np.int64) + np.repeat(
            self.indptr[rows] - indptr[:-1], sizes
        )
        return JoinedSamplePage(
            key_hashes=self.key_hashes[gather],
            x=self.x[gather],
            y=self.y[gather],
            indptr=indptr,
            x_ranges=self.x_ranges[rows],
            y_ranges=self.y_ranges[rows],
        )

    def combined_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample ``(C_low, C_high)`` over both columns, as Section
        4.3 defines: a NaN side is skipped, both NaN stays NaN."""
        return (
            np.fmin(self.x_ranges[:, 0], self.y_ranges[:, 0]),
            np.fmax(self.x_ranges[:, 1], self.y_ranges[:, 1]),
        )

    @property
    def sizes(self) -> np.ndarray:
        """Per-sample pair counts."""
        return np.diff(self.indptr)

    def __len__(self) -> int:
        return self.indptr.shape[0] - 1

    def __getitem__(self, index: int) -> JoinedSample:
        index = range(len(self))[index]  # bounds check, negative indices
        start, end = self.indptr[index], self.indptr[index + 1]
        return JoinedSample(
            key_hashes=self.key_hashes[start:end],
            x=self.x[start:end],
            y=self.y[start:end],
            x_range=tuple(self.x_ranges[index].tolist()),
            y_range=tuple(self.y_ranges[index].tolist()),
        )


@dataclass(frozen=True, eq=False)
class PageJoin:
    """One query joined with a page of candidates (:func:`join_page`).

    ``samples`` holds the candidates' NaN-filtered join samples, one CSR
    block. ``overlaps`` counts the key hashes each candidate shares with
    the query (pairs with a NaN value included). ``k_len`` / ``kth`` /
    ``k_inter`` describe the first ``min(|Q|, |C|)`` entries of the
    rank-ordered union of query and candidate hashes — Eq. 1's ``k``,
    ``U(k)`` and ``K∩``; ``exact`` marks the both-sketches-saw-everything
    shortcut where the overlap is the exact intersection size.

    Every row depends only on the query and that candidate (never on
    the rest of the page), so pages joined in shard- or chunk-sized
    groups and merged with :meth:`concat` / :meth:`take` are
    bit-identical to one join of the whole page.
    """

    samples: JoinedSamplePage
    overlaps: np.ndarray
    k_len: np.ndarray
    kth: np.ndarray
    k_inter: np.ndarray
    exact: np.ndarray

    @classmethod
    def concat(cls, pages: Sequence["PageJoin"], **extra):
        """The pages' rows back to back (one page is returned as is);
        ``extra`` are the subclass's own fields, already merged."""
        if len(pages) == 1:
            return pages[0]

        def column(name: str, dtype) -> np.ndarray:
            parts = [np.empty(0, dtype=dtype)] + [getattr(p, name) for p in pages]
            return np.concatenate(parts)

        return cls(
            samples=JoinedSamplePage.concat([page.samples for page in pages]),
            overlaps=column("overlaps", np.int64),
            k_len=column("k_len", np.int64),
            kth=column("kth", np.float64),
            k_inter=column("k_inter", np.int64),
            exact=column("exact", bool),
            **extra,
        )

    def take(self, rows: np.ndarray, **extra):
        """The rows at ``rows``, in that order, as a new page."""
        return type(self)(
            samples=self.samples.take(rows),
            overlaps=self.overlaps[rows],
            k_len=self.k_len[rows],
            kth=self.kth[rows],
            k_inter=self.k_inter[rows],
            exact=self.exact[rows],
            **extra,
        )

    def intersections(self) -> np.ndarray:
        """Eq. 1's ``|K_Q ∩ K_C|`` estimate per row
        (:func:`repro.kmv.estimators.intersection_estimate_batch`)."""
        return intersection_estimate_batch(
            self.k_len, self.kth, self.k_inter, self.exact, self.overlaps
        )

    def containments(self, d_query: float) -> np.ndarray:
        """Eq. 1 containment estimates ``|K_Q ∩ K_C| / |K_Q|`` per row,
        clipped to ``[0, 1]`` (the ``ĵc`` score)."""
        return containment_estimate_batch(self.intersections(), d_query)


#: Slots per query key in the membership table (a power of two): a
#: 256-key query gets 2**15 slots, 256 KiB of ``intp``, and a random key
#: set puts about one pair of keys in a shared slot. ``intp`` because the
#: slots index the query's arrays: an ``int32`` table is half the size
#: but every gather through it casts first (membership 0.16 ms against
#: 0.12 ms per depth-100 page).
_SLOTS_PER_KEY = 128
#: Ceiling on the table: past 2**15 slots, zeroing and gathering from it
#: cost more than the shared slots it saves. Membership per depth-100
#: page (fetching the page's columns included): at 256 keys 2**13 to
#: 2**15 slots all take 0.18 ms and 2**16 0.19 ms; at 1 024 keys 2**14 /
#: 2**15 / 2**16 / 2**17 slots take 0.72 / 0.60 / 0.65 / 0.74 ms. A
#: bigger query shares more slots, which costs time, never exactness.
_MAX_SLOTS = 1 << 15


class _MembershipTable:
    """Direct-address table over one query's key hashes.

    Slot ``h & mask`` of a query key holds its index in the query's
    arrays. A slot no key owns holds 0, and one that two or more keys
    share holds -1 (``shared`` says whether there is any). Built once
    per query and shared by every row chunk of its page.
    """

    __slots__ = ("hashes", "mask", "slots", "shared")

    def __init__(self, query: SketchColumns) -> None:
        hashes = query.key_hashes
        wanted = 1 << (hashes.size * _SLOTS_PER_KEY - 1).bit_length()
        n_slots = min(_MAX_SLOTS, wanted)
        low = hashes.view(np.int64) & (n_slots - 1)
        slots = np.zeros(n_slots, dtype=np.intp)
        slots[low] = np.arange(hashes.size)
        low.sort()
        clashing = low[1:][low[1:] == low[:-1]]
        slots[clashing] = -1
        self.hashes, self.mask, self.slots = hashes, n_slots - 1, slots
        self.shared = clashing.size > 0


def _membership_batch(
    table: _MembershipTable, candidates: Sequence[SketchColumns]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Probe a whole candidate page against the query's key hashes.

    Concatenates the candidates' hash arrays and looks every entry up in
    the query's :class:`_MembershipTable`: one gather of its slot and one
    compare of the query hash the slot names with the entry's own.
    Returns ``(in_query, positions, offsets, hashes)``: a boolean
    membership mask over the page's entries, for members their index in
    the query's arrays, the candidates' segment bounds and the
    concatenated hash array itself. Membership is per-element, so a
    candidate's slice is what probing it alone gives.

    Exact: a query key lives in the slot of its low bits, so an entry
    on a slot one key owns is a member if and only if it equals that
    key, and one on a slot no key owns equals none — the slot names
    query key 0, whose own slot is another. Only entries on a shared
    slot are binary-searched in the sorted query hashes: a random
    256-key query searches a handful of entries, or none, and one whose
    keys all share a slot (a crafted key set) searches the entries on
    that slot only. A page whose entries all sit on shared slots — a
    crafted query *and* crafted candidates — searches every entry after
    the lookup, which makes it slower than a plain page-wide search.
    """
    offsets = np.zeros(len(candidates) + 1, dtype=np.int64)
    np.cumsum(
        np.asarray([c.size for c in candidates], dtype=np.int64),
        out=offsets[1:],
    )
    if len(candidates):
        concat = np.concatenate([c.key_hashes for c in candidates])
    else:
        concat = np.empty(0, dtype=np.uint64)
    query = table.hashes
    if not query.size:
        return (
            np.zeros(concat.size, dtype=bool),
            np.zeros(concat.size, dtype=np.intp),
            offsets,
            concat,
        )
    positions = table.slots[concat.view(np.int64) & table.mask]
    if table.shared:
        searched = np.flatnonzero(positions < 0)
        if searched.size:
            positions[searched] = np.minimum(
                np.searchsorted(query, concat[searched]), query.size - 1
            )
    return query[positions] == concat, positions, offsets, concat


#: Scratch cells one page-kernel pass may allocate (the join grid and the
#: union rank matrix are each ``rows x width``): 512 KiB of float64, so a
#: paper-sized page (depth 100, sketch size 256: 51 200 cells) is one
#: pass and only deeper or wider pages are processed in row chunks, each
#: chunk costing ~0.1-0.2 ms of call overhead. A pass works through a
#: dozen ``rows x max|C|`` temporaries; whether those cost page faults
#: is the allocator's doing, not the chunk size's — see
#: ``repro.serving.session._pin_malloc_thresholds``.
_PAGE_SCRATCH_CELLS = 64 << 10


def _row_chunks(
    query: SketchColumns, candidates: Sequence[SketchColumns]
) -> list[tuple[int, int]]:
    """Row ranges whose ``rows x (|Q| + max|C|)`` scratch fits the bound."""
    width = query.size + max((c.size for c in candidates), default=0)
    rows = max(1, _PAGE_SCRATCH_CELLS // max(width, 1))
    return [
        (lo, min(lo + rows, len(candidates)))
        for lo in range(0, len(candidates), rows)
    ]


def key_overlaps(
    query: SketchColumns, candidates: Sequence[SketchColumns]
) -> np.ndarray:
    """Key hashes each candidate shares with ``query`` — the membership
    probe of :func:`join_page` alone, for retrieval that needs only
    the counts."""
    table = _MembershipTable(query)
    parts = [np.empty(0, dtype=np.int64)]
    for lo, hi in _row_chunks(query, candidates):
        in_query, _, offsets, _ = _membership_batch(table, candidates[lo:hi])
        members = np.concatenate(([0], np.cumsum(in_query)))
        parts.append(members[offsets[1:]] - members[offsets[:-1]])
    return np.concatenate(parts)


def join_page(
    query: SketchColumns, candidates: Sequence[SketchColumns]
) -> PageJoin:
    """Join ``query`` with every candidate in page-level passes (§3.2).

    One membership table and one rank derivation for the query, then one
    membership probe, one scatter-ordered join and one row-wise rank
    partition per row chunk (:func:`_join_rows`), merged with
    :meth:`PageJoin.concat`. The columns must share one hashing scheme:
    :func:`join_pair` checks a sketch pair, and a catalog holds one.
    """
    table = _MembershipTable(query)
    query_ranks = query.ranks
    # Where each query entry stands in ascending rank order.
    rank_pos = np.empty(query.size, dtype=np.int64)
    rank_pos[np.argsort(query_ranks)] = np.arange(query.size)
    return PageJoin.concat(
        [
            _join_rows(query, table, query_ranks, rank_pos, candidates[lo:hi])
            for lo, hi in _row_chunks(query, candidates)
        ]
    )


def join_pair(left, right) -> PageJoin:
    """A sketch pair as a page of one: ``left`` the query, ``right`` its
    one candidate. Takes any sketch with a ``hasher`` and a
    ``columnar()`` view (:class:`~repro.core.sketch.CorrelationSketch`).

    Raises:
        ValueError: if the sketches use different hashing schemes — their
            tuple identifiers would not be comparable.
    """
    if left.hasher.scheme_id != right.hasher.scheme_id:
        raise ValueError(
            "cannot join sketches built with different hashing schemes: "
            f"{left.hasher!r} vs {right.hasher!r}"
        )
    return join_page(left.columnar(), [right.columnar()])


def _join_rows(
    query: SketchColumns,
    table: _MembershipTable,
    query_ranks: np.ndarray,
    rank_pos: np.ndarray,
    candidates: Sequence[SketchColumns],
) -> PageJoin:
    """The two page kernels over one row chunk.

    The candidates' ranks are derived from the chunk's concatenated
    key hashes (the membership probe's own array) in one pass, the
    query's ranks and rank positions were derived once per page.

    **Join.** A shared key hash carries the same rank on both sides
    and ranks are injective over hashes, so a candidate's matched
    pairs in ascending rank order are its members in ascending
    *query* rank position. Scattering each member's page index into
    the dense ``(candidate row, query rank position)`` grid and
    reading the filled cells row-major therefore yields every
    candidate's join in canonical order with no sort at all.

    **Union k-th rank.** The rank-ordered union of query and
    candidate hashes is the query's ranks plus the candidate's
    *non-member* ranks. Laying those side by side in one
    ``(rows, |Q| + max|C|)`` matrix — members and padding at
    ``+inf``, which can never be among the first ``k_len <= |Q|`` —
    one row-wise ``partition`` puts every row's ``k_len``-th
    smallest in place; ``k_inter`` is then the members ranked at or
    below it.

    **Value bounds.** A row whose two aggregates are both
    range-preserving takes the sketches' stored column ranges; any
    other row (``sum``, ``count``) the observed range of its sample.
    """
    n, q_size = len(candidates), query.size
    in_query, positions, offsets, cat_hashes = _membership_batch(table, candidates)
    sizes = np.diff(offsets)
    cat_values = np.concatenate([c.values for c in candidates])
    row_of = np.repeat(np.arange(n), sizes)
    members = np.nonzero(in_query)[0]
    member_rows = row_of[members]

    grid = np.full(n * q_size, -1, dtype=np.int64)
    grid[member_rows * q_size + rank_pos[positions[members]]] = members
    ordered = grid[grid >= 0]
    pair_rows = row_of[ordered]
    key_hashes = cat_hashes[ordered]
    x = query.values[positions[ordered]]
    y = cat_values[ordered]
    missing = np.isnan(x)
    missing |= np.isnan(y)
    if missing.any():
        keep = ~missing
        key_hashes, x, y = key_hashes[keep], x[keep], y[keep]
        pair_rows = pair_rows[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_rows, minlength=n), out=indptr[1:])

    exact = np.asarray([c.saw_all_keys for c in candidates], dtype=bool)
    exact &= query.saw_all_keys
    k_len = np.where(exact, 0, np.minimum(q_size, sizes))
    kth = np.ones(n)
    k_inter = np.zeros(n, dtype=np.int64)
    live = k_len > 0
    if live.any():
        cat_ranks = to_unit_interval_batch(cat_hashes, query.bits)
        member_ranks = cat_ranks[members]
        cat_ranks[members] = np.inf
        max_size = int(sizes.max())
        ranks = np.empty((n, q_size + max_size))
        ranks[:, :q_size] = query_ranks
        padded = ranks[:, q_size:]
        padded[...] = np.inf
        # A boolean-mask store fills row-major, i.e. in page order.
        padded[np.arange(max_size) < sizes[:, None]] = cat_ranks
        k_index = np.maximum(k_len, 1) - 1
        ranks.partition(np.unique(k_index[live]), axis=1)
        kth[live] = ranks[np.arange(n), k_index][live]
        inside = live[member_rows] & (member_ranks <= kth[member_rows])
        k_inter = np.bincount(member_rows[inside], minlength=n)

    x_ranges = np.broadcast_to(
        np.asarray(query.value_range, dtype=np.float64), (n, 2)
    )
    y_ranges = np.asarray([c.value_range for c in candidates], dtype=np.float64)
    bounded = np.asarray([c.range_preserving for c in candidates], dtype=bool)
    bounded &= query.range_preserving
    if not bounded.all():
        x_ranges = np.array(x_ranges)
        x_ranges[~bounded] = y_ranges[~bounded] = np.nan
        # Segment reductions over the non-empty samples, kept where the
        # row is unbounded; an empty sample keeps (nan, nan).
        rows = np.flatnonzero(np.diff(indptr) > 0)
        picked = ~bounded[rows]
        if picked.any():
            starts = indptr[rows]
            for ranges, values in ((x_ranges, x), (y_ranges, y)):
                ranges[rows[picked], 0] = np.minimum.reduceat(values, starts)[picked]
                ranges[rows[picked], 1] = np.maximum.reduceat(values, starts)[picked]

    return PageJoin(
        samples=JoinedSamplePage(
            key_hashes=key_hashes,
            x=x,
            y=y,
            indptr=indptr,
            x_ranges=x_ranges,
            y_ranges=y_ranges,
        ),
        overlaps=np.bincount(member_rows, minlength=n),
        k_len=k_len,
        kth=kth,
        k_inter=k_inter,
        exact=exact,
    )
