"""Bounded ordered structure keeping the ``k`` entries with smallest rank.

The paper's implementation note (Section 3.4) describes "a tree-based
algorithm similar to the one described in [Beyer et al. 2007]": one pass
over the data while maintaining the ``n`` tuples with minimum ``h_u``
values. CPython has no built-in balanced BST, so we realize the same
*interface* (insert-if-smaller, eject current maximum, membership by key)
with the textbook equivalent: a max-heap on the rank, paired with a
hash map from key to entry for O(1) membership and in-place value updates.
All operations are O(log k) amortized, matching the tree the paper uses.

Entries are ``(rank, key, payload)``. For correlation sketches ``rank`` is
``h_u(h(k))``, ``key`` is ``h(k)`` and ``payload`` holds the aggregator
state for the numeric values. The structure is deliberately generic so the
plain KMV synopsis (payload ``None``) and the correlation sketch share it.

Lazy deletion: when a key's entry is displaced we mark the heap slot stale
instead of rebuilding; stale tops are popped on demand. ``len`` and
iteration always reflect only live entries.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, Sequence

import numpy as np


def bottom_k_positions(
    ranks: np.ndarray, keys: np.ndarray, k: int, n_live: int = 0
) -> np.ndarray:
    """Positions of the ``k`` smallest ``ranks`` (``len(ranks) > k``).

    One ``np.argpartition`` on rank. Exact rank ties on the admission
    boundary go to the first ``n_live`` positions (entries already
    retained) before any later one, then to the smaller key — the rule
    :meth:`BottomK.update_batch` documents.
    """
    part = np.argpartition(ranks, k - 1)[:k]
    kth_rank = ranks[part[k - 1]]
    if np.count_nonzero(ranks <= kth_rank) == k:
        return part
    sure = np.nonzero(ranks < kth_rank)[0]
    tied = np.nonzero(ranks == kth_rank)[0]
    order = np.lexsort((keys[tied], tied >= n_live))
    return np.concatenate([sure, tied[order[: k - sure.size]]])


class _Entry:
    """Mutable heap slot; ``stale`` marks lazily deleted entries."""

    __slots__ = ("rank", "key", "payload", "stale")

    def __init__(self, rank: float, key: int, payload: Any) -> None:
        self.rank = rank
        self.key = key
        self.payload = payload
        self.stale = False

    def __lt__(self, other: "_Entry") -> bool:
        # heapq is a min-heap; invert the comparison to get a max-heap on
        # rank so the largest rank sits at the top, ready for ejection.
        if self.rank != other.rank:
            return self.rank > other.rank
        return self.key > other.key


class BottomK:
    """Keep the ``k`` distinct keys with smallest rank, with payloads.

    Args:
        k: capacity (the paper's sketch size ``n``). Must be positive.

    The structure de-duplicates by key: offering an existing key never
    consumes extra capacity; instead the optional ``update`` callback folds
    the new payload into the stored one (this is how repeated join keys are
    aggregated during sketch construction, Section 3.1).
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self._heap: list[_Entry] = []
        self._by_key: dict[int, _Entry] = {}

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, key: int) -> bool:
        return key in self._by_key

    def _prune(self) -> None:
        while self._heap and self._heap[0].stale:
            heapq.heappop(self._heap)

    @property
    def max_rank(self) -> float:
        """Rank of the current k-th smallest entry (``inf`` if not full)."""
        if len(self._by_key) < self.k:
            return float("inf")
        self._prune()
        return self._heap[0].rank

    def kth_rank(self) -> float:
        """The paper's ``U(k)``: the largest rank currently retained.

        Raises:
            ValueError: if the structure is empty.
        """
        if not self._by_key:
            raise ValueError("empty BottomK has no kth rank")
        self._prune()
        return self._heap[0].rank

    def get(self, key: int) -> Any:
        """Return the payload stored for ``key`` (KeyError if absent)."""
        return self._by_key[key].payload

    def offer(
        self,
        rank: float,
        key: int,
        payload: Any = None,
        update: Callable[[Any, Any], Any] | None = None,
    ) -> bool:
        """Offer an item; returns True if it is retained afterwards.

        If ``key`` is already present, ``update(old_payload, payload)`` is
        applied (defaults to replacing the payload) and the entry stays —
        the rank of an existing key never changes because ``rank`` is a
        deterministic function of ``key``.

        If ``key`` is new and the structure is full, it is admitted only
        when its rank beats the current maximum, which then gets ejected.
        """
        entry = self._by_key.get(key)
        if entry is not None:
            if update is not None:
                entry.payload = update(entry.payload, payload)
            else:
                entry.payload = payload
            return True

        if len(self._by_key) >= self.k:
            self._prune()
            top = self._heap[0]
            if rank >= top.rank:
                return False
            heapq.heappop(self._heap)
            del self._by_key[top.key]

        entry = _Entry(rank, key, payload)
        heapq.heappush(self._heap, entry)
        self._by_key[key] = entry
        return True

    def update_batch(
        self,
        ranks: np.ndarray,
        keys: np.ndarray,
        payloads: Sequence[Any],
    ) -> np.ndarray:
        """Batch-merge new candidates, keeping the bottom-``k`` by rank.

        The vectorized counterpart of one :meth:`offer` call per element:
        instead of ``m`` heap pushes (each O(log k)), the live entries and
        the candidates are concatenated and the ``k`` smallest selected
        with one ``np.argpartition`` pass, then the heap is rebuilt once.

        Args:
            ranks: float array of candidate ranks.
            keys: parallel integer array; every key must be **distinct**,
                **absent** from the structure, and fit in ``uint64``
                (callers de-duplicate first — the sketch construction path
                groups rows by key hash before offering).
            payloads: parallel payload sequence.

        Returns:
            Boolean array; element ``i`` is True when ``keys[i]`` is
            retained after the merge.

        Exact rank ties on the admission boundary are broken like the
        scalar path where possible: live entries beat candidates (one
        :meth:`offer` rejects a newcomer whose rank *equals* the current
        maximum), and among tied entries of the same kind the smaller key
        wins (``_Entry.__lt__`` ejects the larger ``(rank, key)`` first).
        Two tied *candidates* on the boundary are resolved by key, whereas
        the scalar path would keep whichever arrived first — the one
        divergence. With the 32-bit hasher it cannot occur at all (ranks
        are ``fib(h(k)) / 2**32`` with a bijective ``fib``, hence
        injective over key hashes); with the 64-bit hasher the float64
        rounding of ``fib(h(k)) / 2**64`` could in principle collide two
        key hashes onto one rank, but the collision must also land
        exactly on the admission boundary to be observable.
        """
        ranks = np.asarray(ranks, dtype=np.float64)
        keys_arr = np.asarray(keys, dtype=np.uint64)
        m = ranks.shape[0]
        if keys_arr.shape[0] != m or len(payloads) != m:
            raise ValueError(
                f"ranks ({m}), keys ({keys_arr.shape[0]}) and payloads "
                f"({len(payloads)}) must have equal length"
            )
        if m == 0:
            return np.zeros(0, dtype=bool)

        n_live = len(self._by_key)
        if n_live + m <= self.k:
            # Everything fits: plain pushes, no selection needed.
            for i in range(m):
                entry = _Entry(float(ranks[i]), int(keys_arr[i]), payloads[i])
                heapq.heappush(self._heap, entry)
                self._by_key[entry.key] = entry
            return np.ones(m, dtype=bool)

        live = list(self._by_key.values())
        all_ranks = np.concatenate(
            [np.fromiter((e.rank for e in live), np.float64, n_live), ranks]
        )
        all_keys = np.concatenate(
            [np.fromiter((e.key for e in live), np.uint64, n_live), keys_arr]
        )

        keep = bottom_k_positions(all_ranks, all_keys, self.k, n_live)

        admitted = np.zeros(m, dtype=bool)
        entries: list[_Entry] = []
        for pos in keep.tolist():
            if pos < n_live:
                entries.append(live[pos])
            else:
                i = pos - n_live
                admitted[i] = True
                entries.append(
                    _Entry(float(ranks[i]), int(keys_arr[i]), payloads[i])
                )
        heapq.heapify(entries)
        self._heap = entries
        self._by_key = {e.key: e for e in entries}
        return admitted

    def items(self) -> Iterator[tuple[float, int, Any]]:
        """Yield live ``(rank, key, payload)`` tuples in arbitrary order."""
        for key, entry in self._by_key.items():
            yield entry.rank, key, entry.payload

    def sorted_items(self) -> list[tuple[float, int, Any]]:
        """Return live entries sorted by ascending rank (ties by key)."""
        return sorted(self.items(), key=lambda t: (t[0], t[1]))

    def keys(self) -> Iterator[int]:
        """Yield the retained keys in arbitrary order."""
        return iter(self._by_key)
