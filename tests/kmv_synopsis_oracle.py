"""The row-at-a-time KMV synopsis and its set operations (Section 2.1).

Not a test file: it is the eighth oracle, the classic bottom-``k``
synopsis of Bar-Yossef et al. (2002) and the multiset-operation
estimators of Beyer et al. (2007). A :class:`KMVSynopsis` hashes one key
at a time into a ``BottomK`` heap; ``merge_synopses`` sorts the union of
two synopses' ``(key_hash, unit_value)`` pairs in Python and counts
``K∩`` among the first ``k = min(k_A, k_B)`` (the synopses' capacities),
and ``estimate_union`` / ``estimate_intersection`` (Eq. 1) /
``estimate_jaccard`` / ``estimate_containment`` / ``estimate_join_size``
are built on it. It was ``repro.kmv.synopsis`` / ``repro.kmv.setops``
until the correlation sketch became the one KMV in ``src/``:
``CorrelationSketch.distinct_keys`` and
``repro.core.estimation.set_estimates`` compute the same statistics on
the sketches' sorted key-hash columns, through the Eq. 1 kernel the
candidate page uses.

The two disagree only when exactly one side saw all its keys: the oracle
takes ``k = min(capacities)``, ``set_estimates`` (like the served
``ĵc``) takes ``k = min(retained sizes)``. Both are unbiased.
``basic_dv_estimate`` (``k / U(k)``) and ``unbiased_dv_variance`` live
here too; nothing in ``src/`` calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.hashing import KeyHasher, default_hasher
from repro.kmv.bottomk import BottomK
from repro.kmv.estimators import unbiased_dv_estimate


def basic_dv_estimate(k: int, kth_unit_value: float, *, saw_all: bool = False) -> float:
    """Basic DV estimator ``k / U(k)``.

    Args:
        k: number of retained minimum hash values.
        kth_unit_value: ``U(k)``, the k-th smallest unit-interval hash.
        saw_all: True when the synopsis never overflowed — the retained
            keys *are* the distinct keys and ``k`` is returned exactly.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0:
        return 0.0
    if saw_all:
        return float(k)
    if not 0.0 < kth_unit_value <= 1.0:
        raise ValueError(f"U(k) must lie in (0, 1], got {kth_unit_value}")
    return k / kth_unit_value


def unbiased_dv_variance(k: int, distinct: float) -> float:
    """Approximate variance of the unbiased estimator.

    Beyer et al. (2007) give ``Var[D_UB] ≈ D * (D - k + 1) / (k - 2)`` for
    ``k > 2``; we expose it so callers can attach error bars to cardinality
    estimates (used by the ablation benchmarks).
    """
    if k <= 2:
        return float("inf")
    return distinct * (distinct - k + 1) / (k - 2)


class KMVSynopsis:
    """Bottom-``k`` synopsis of a stream of (possibly repeated) keys.

    Args:
        k: synopsis capacity.
        hasher: hashing scheme; defaults to the paper's 32-bit MurmurHash3
            + Fibonacci composition.
    """

    def __init__(self, k: int, hasher: KeyHasher | None = None) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self.hasher = hasher if hasher is not None else default_hasher()
        self._bottom = BottomK(k)
        self._overflowed = False

    # -- construction ------------------------------------------------------

    def update(self, key: object) -> None:
        """Offer one key occurrence to the synopsis."""
        pair = self.hasher.hash(key)
        if pair.key_hash in self._bottom:
            return
        was_full = len(self._bottom) >= self.k
        admitted = self._bottom.offer(pair.unit_hash, pair.key_hash)
        if not admitted or was_full:
            # Either this key was rejected, or it displaced another: in
            # both cases at least one distinct key is no longer retained.
            self._overflowed = True

    def update_all(self, keys: Iterable[object]) -> None:
        """Offer every key in ``keys``."""
        for key in keys:
            self.update(key)

    @classmethod
    def from_keys(
        cls, keys: Iterable[object], k: int, hasher: KeyHasher | None = None
    ) -> "KMVSynopsis":
        """Build a synopsis from an iterable of keys in one pass."""
        synopsis = cls(k, hasher)
        synopsis.update_all(keys)
        return synopsis

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        """Number of retained (hash, rank) pairs, at most ``k``."""
        return len(self._bottom)

    @property
    def saw_all_keys(self) -> bool:
        """True when no key was ever rejected — retained keys are exact.

        Note displacement cannot occur before rejection for deterministic
        ranks: an entry is displaced only when the structure is full and a
        smaller rank arrives, which also means future offers of the
        displaced key would be rejected. We track rejection/displacement
        together via ``_overflowed``.
        """
        return not self._overflowed

    def key_hashes(self) -> set[int]:
        """Set of retained tuple identifiers ``h(k)``."""
        return set(self._bottom.keys())

    def unit_values(self) -> list[float]:
        """Retained unit-interval hash values, ascending."""
        return [rank for rank, _key, _payload in self._bottom.sorted_items()]

    def kth_unit_value(self) -> float:
        """``U(k)``: the largest retained unit-interval value."""
        return self._bottom.kth_rank()

    def __iter__(self) -> Iterator[tuple[int, float]]:
        """Yield retained ``(key_hash, unit_value)`` by ascending rank."""
        for rank, key, _payload in self._bottom.sorted_items():
            yield key, rank

    # -- estimation --------------------------------------------------------

    def distinct_values(self, *, estimator: str = "unbiased") -> float:
        """Estimate the number of distinct keys offered so far.

        Args:
            estimator: ``"unbiased"`` for ``(k-1)/U(k)`` (default, Beyer et
                al. 2007) or ``"basic"`` for ``k/U(k)``.
        """
        size = len(self._bottom)
        if size == 0:
            return 0.0
        saw_all = self.saw_all_keys
        ukth = self._bottom.kth_rank() if not saw_all else 1.0
        if estimator == "unbiased":
            return unbiased_dv_estimate(size, ukth, saw_all=saw_all)
        if estimator == "basic":
            return basic_dv_estimate(size, ukth, saw_all=saw_all)
        raise ValueError(f"unknown estimator {estimator!r}")


@dataclass(frozen=True, slots=True)
class CombinedSynopsis:
    """The ``⊕`` combination of two synopses.

    Attributes:
        k: combined synopsis size, ``min(k_X, k_Y)`` (capped by the number
            of available hashes when the inputs are small).
        kth_unit_value: ``U(k)`` over the union of retained hashes.
        intersection_count: ``K∩`` — how many of the ``k`` smallest hashes
            appear in both input synopses.
        saw_all: True when both inputs retained all of their keys, making
            set operations exact.
    """

    k: int
    kth_unit_value: float
    intersection_count: int
    saw_all: bool


def _check_compatible(a: KMVSynopsis, b: KMVSynopsis) -> None:
    if a.hasher.scheme_id != b.hasher.scheme_id:
        raise ValueError(
            "synopses built with different hashing schemes are not "
            f"comparable: {a.hasher!r} vs {b.hasher!r}"
        )


def merge_synopses(a: KMVSynopsis, b: KMVSynopsis) -> CombinedSynopsis:
    """Compute ``L = L_A ⊕ L_B`` and the intersection count ``K∩``."""
    _check_compatible(a, b)
    hashes_a = dict(iter(a))  # key_hash -> unit value, ascending omitted
    hashes_b = dict(iter(b))
    union: dict[int, float] = dict(hashes_a)
    union.update(hashes_b)

    k = min(a.k, b.k)
    ordered = sorted(union.items(), key=lambda kv: (kv[1], kv[0]))[:k]
    if not ordered:
        return CombinedSynopsis(0, 1.0, 0, saw_all=True)

    k_eff = len(ordered)
    kth = ordered[-1][1]
    inter = sum(1 for kh, _u in ordered if kh in hashes_a and kh in hashes_b)
    saw_all = a.saw_all_keys and b.saw_all_keys
    return CombinedSynopsis(k_eff, kth, inter, saw_all)


def estimate_union(a: KMVSynopsis, b: KMVSynopsis) -> float:
    """Estimate ``|K_A ∪ K_B|`` from two synopses."""
    combined = merge_synopses(a, b)
    if combined.k == 0:
        return 0.0
    if combined.saw_all:
        return float(len(a.key_hashes() | b.key_hashes()))
    return unbiased_dv_estimate(combined.k, combined.kth_unit_value)


def estimate_intersection(a: KMVSynopsis, b: KMVSynopsis) -> float:
    """Estimate ``|K_A ∩ K_B|`` (Eq. 1): ``(K∩/k) * (k-1)/U(k)``."""
    combined = merge_synopses(a, b)
    if combined.k == 0:
        return 0.0
    if combined.saw_all:
        return float(len(a.key_hashes() & b.key_hashes()))
    d_union = unbiased_dv_estimate(combined.k, combined.kth_unit_value)
    return (combined.intersection_count / combined.k) * d_union


def estimate_jaccard(a: KMVSynopsis, b: KMVSynopsis) -> float:
    """Estimate the Jaccard similarity ``|A ∩ B| / |A ∪ B|``.

    The ratio estimator ``K∩ / k`` is used directly (the union-cardinality
    factors cancel), which is the standard KMV Jaccard estimate.
    """
    combined = merge_synopses(a, b)
    if combined.k == 0:
        return 0.0
    if combined.saw_all:
        union = len(a.key_hashes() | b.key_hashes())
        if union == 0:
            return 0.0
        return len(a.key_hashes() & b.key_hashes()) / union
    return combined.intersection_count / combined.k


def estimate_containment(query: KMVSynopsis, candidate: KMVSynopsis) -> float:
    """Estimate the Jaccard containment ``|Q ∩ C| / |Q|``.

    This is the joinability measure used by joinable-table search systems
    (JOSIE, Lazo, GB-KMV) and serves as the ``ĵc`` baseline in Table 1.
    """
    d_query = query.distinct_values()
    if d_query <= 0:
        return 0.0
    inter = estimate_intersection(query, candidate)
    return max(0.0, min(1.0, inter / d_query))


def estimate_join_size(a: KMVSynopsis, b: KMVSynopsis) -> float:
    """Estimate the row count of the key-equi-join after aggregation.

    With per-key aggregation (Section 3 reduces one-many and many-many
    joins to one-one), the joined table has exactly one row per key in
    ``K_A ∩ K_B``, so the join size equals the intersection cardinality.
    """
    return estimate_intersection(a, b)
