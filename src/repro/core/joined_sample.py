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

:func:`join_sketches` joins one pair: the dict-set intersection of the
two sketches' entry maps, sorted by rank. The query pipeline joins a
whole candidate page at once from the sketches' columnar views
(:class:`repro.index.engine.CandidatePage`) into a
:class:`JoinedSamplePage` whose samples are bit-identical to
``join_sketches(query, candidate).drop_nan()``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.sketch import CorrelationSketch


@dataclass(frozen=True)
class JoinedSample:
    """Aligned numeric samples reconstructed from two sketches.

    Attributes:
        key_hashes: the joint tuple identifiers, ascending by rank.
        x: numeric values from the left sketch, aligned with ``key_hashes``.
        y: numeric values from the right sketch, aligned with ``key_hashes``.
        x_range: global (min, max) of the left column (for CI bounds).
        y_range: global (min, max) of the right column.
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

    def drop_nan(self) -> "JoinedSample":
        """Return a copy without pairs containing NaN (missing data)."""
        mask = ~(np.isnan(self.x) | np.isnan(self.y))
        if mask.all():
            return self
        return JoinedSample(
            key_hashes=self.key_hashes[mask],
            x=self.x[mask],
            y=self.y[mask],
            x_range=self.x_range,
            y_range=self.y_range,
        )

    def combined_range(self) -> tuple[float, float]:
        """``(C_low, C_high)`` over both columns, as Section 4.3 defines."""
        lows = [v for v in (self.x_range[0], self.y_range[0]) if v == v]
        highs = [v for v in (self.x_range[1], self.y_range[1]) if v == v]
        if not lows or not highs:
            return (np.nan, np.nan)
        return (min(lows), max(highs))


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


def join_sketches(left: CorrelationSketch, right: CorrelationSketch) -> JoinedSample:
    """Join two sketches on their key hashes (Section 3.2, step 1).

    Raises:
        ValueError: if the sketches use different hashing schemes — their
            tuple identifiers would not be comparable.
    """
    if left.hasher.scheme_id != right.hasher.scheme_id:
        raise ValueError(
            "cannot join sketches built with different hashing schemes: "
            f"{left.hasher!r} vs {right.hasher!r}"
        )

    left_entries = left.entries()
    right_entries = right.entries()
    if len(left_entries) > len(right_entries):
        # Iterate the smaller map for the membership probes.
        common = [kh for kh in right_entries if kh in left_entries]
    else:
        common = [kh for kh in left_entries if kh in right_entries]

    # Deterministic order: ascending unit-hash rank (equivalently, the
    # order in which a bigger sketch would have admitted them).
    common.sort(key=left.hasher.unit_hash_of_key_hash)

    key_hashes = np.asarray(common, dtype=np.uint64)
    x = np.asarray([left_entries[kh] for kh in common], dtype=np.float64)
    y = np.asarray([right_entries[kh] for kh in common], dtype=np.float64)

    def _range(sketch: CorrelationSketch) -> tuple[float, float]:
        if sketch.value_min > sketch.value_max:
            return (np.nan, np.nan)
        return (sketch.value_min, sketch.value_max)

    return JoinedSample(
        key_hashes=key_hashes,
        x=x,
        y=y,
        x_range=_range(left),
        y_range=_range(right),
    )

