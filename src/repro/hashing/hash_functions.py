"""Key-hashing façade: the composed map ``g(k) = h_u(h(k))``.

A :class:`KeyHasher` bundles the two hash functions from Section 3.4 of the
paper behind a single object so every sketch in a collection is guaranteed
to use the *same* ``h`` and ``h_u``. Sketches built with different hashers
must never be joined (their tuple identifiers would be incomparable), so
the hasher carries an identity fingerprint that sketch-join code checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.hashing.fibonacci import (
    to_unit_interval_32,
    to_unit_interval_64,
    to_unit_interval_batch,
)
from repro.hashing.murmur3 import murmur3_32, murmur3_x64_64
from repro.hashing.vectorized import murmur3_32_batch, murmur3_x64_64_batch


@dataclass(frozen=True, slots=True)
class HashPair:
    """The two hash values a sketch stores/derives for one key.

    Attributes:
        key_hash: the tuple identifier ``h(k)`` (stored in the sketch).
        unit_hash: the unit-interval value ``h_u(h(k))`` used for
            bottom-``n`` selection (derivable, never stored).
    """

    key_hash: int
    unit_hash: float


class KeyHasher:
    """Composed hashing scheme ``g(k) = h_u(h(k))``.

    Args:
        bits: 32 (paper default, MurmurHash3 x86_32 + 32-bit Fibonacci) or
            64 (MurmurHash3 x64 + 64-bit Fibonacci).
        seed: seed forwarded to MurmurHash3. Distinct seeds produce
            independent hashing schemes, which the test-suite uses to check
            distributional properties.
    """

    def __init__(self, bits: int = 32, seed: int = 0) -> None:
        if bits not in (32, 64):
            raise ValueError(f"bits must be 32 or 64, got {bits}")
        self.bits = bits
        self.seed = seed
        if bits == 32:
            self._hash: Callable[[object, int], int] = murmur3_32
            self._unit: Callable[[int], float] = to_unit_interval_32
        else:
            self._hash = murmur3_x64_64
            self._unit = to_unit_interval_64

    @property
    def scheme_id(self) -> tuple[int, int]:
        """Fingerprint identifying this hashing scheme.

        Two sketches are joinable only if their hashers share a scheme id.
        """
        return (self.bits, self.seed)

    def key_hash(self, key: object) -> int:
        """Return the tuple identifier ``h(k)``."""
        return self._hash(key, self.seed)

    def unit_hash_of_key_hash(self, key_hash: int) -> float:
        """Return ``h_u(h(k))`` given an already-computed ``h(k)``."""
        return self._unit(key_hash)

    def hash(self, key: object) -> HashPair:
        """Return both hash values for ``key``."""
        kh = self._hash(key, self.seed)
        return HashPair(key_hash=kh, unit_hash=self._unit(kh))

    # -- vectorized fast path (array-in / array-out) -----------------------

    def hash_batch(self, keys) -> np.ndarray:
        """Vectorized :meth:`key_hash` over a key array or sequence.

        Elementwise identical to the scalar path:
        ``hash_batch(keys)[i] == key_hash(keys[i])`` for every supported
        key type. Numeric and bool arrays are encoded with array
        operations, an all-``str`` sequence (list, object array, ``<U``
        array) by one join and one UTF-8 encode, anything else one key at
        a time; one kernel launch then hashes the whole column whatever
        its mix of key lengths (see :mod:`repro.hashing.vectorized`).
        Returns a ``uint32`` (``bits=32``) or ``uint64`` (``bits=64``)
        array.
        """
        if self.bits == 32:
            return murmur3_32_batch(keys, self.seed)
        return murmur3_x64_64_batch(keys, self.seed)

    def unit_hash_batch(self, key_hashes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`unit_hash_of_key_hash` over an integer array.

        Returns a float64 array; each element is bit-identical to the
        scalar Fibonacci map of the same tuple identifier.
        """
        return to_unit_interval_batch(key_hashes, self.bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeyHasher):
            return NotImplemented
        return self.scheme_id == other.scheme_id

    def __hash__(self) -> int:
        return hash(self.scheme_id)

    def __repr__(self) -> str:
        return f"KeyHasher(bits={self.bits}, seed={self.seed})"


class TupleHash:
    """Hash composite (multi-attribute) join keys.

    Multi-column join keys are canonicalized as a tuple of attribute byte
    encodings separated by a 0x1F unit-separator byte, then hashed with the
    wrapped :class:`KeyHasher`. This lets callers index composite keys
    without inventing ad-hoc string concatenations (which would make
    ``("a", "bc")`` collide with ``("ab", "c")``).
    """

    _SEP = b"\x1f"

    def __init__(self, hasher: KeyHasher) -> None:
        self.hasher = hasher

    def canonical_bytes(self, parts: tuple) -> bytes:
        from repro.hashing.murmur3 import _to_bytes

        encoded = [_to_bytes(p) for p in parts]
        return self._SEP.join(encoded)

    def hash(self, parts: tuple) -> HashPair:
        return self.hasher.hash(self.canonical_bytes(parts))


def default_hasher() -> KeyHasher:
    """Return the paper's default scheme: 32-bit MurmurHash3, seed 0."""
    return KeyHasher(bits=32, seed=0)
