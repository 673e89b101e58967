"""Vectorized (NumPy array-in / array-out) MurmurHash3.

Sketch construction hashes every key of a column exactly once, and for the
pure-Python scalar :mod:`repro.hashing.murmur3` port that hash *is* the
construction hot path. This module re-implements both MurmurHash3 variants
over NumPy arrays so a whole column — whatever mix of key lengths it
holds — is hashed by one kernel launch.

Bit-exactness contract
----------------------
Every batch function here is **elementwise identical** to its scalar
counterpart (``murmur3_32_batch(keys, s)[i] == murmur3_32(keys[i], s)``
for every supported key type). This is not a nicety: Theorem 1 of the
paper requires that two independently built sketches agree on the hash of
a shared key, so a fast path that hashed even one key differently would
silently break sketch joinability with catalogs built on the scalar path.
The test suite enforces the contract against the scalar port on random
bytes, strings, integers (including the 9-byte ``-2**63`` encoding edge
case), floats, booleans and mixed-type sequences.

The ragged kernel
-----------------
Keys reach the kernel as one concatenated byte buffer plus per-key
``(start, length)``. Rows are sorted longest first and gathered into a
matrix of little-endian words wide enough for the longest key plus one
word; the block loop of MurmurHash3 then runs over a shrinking *prefix*
of rows (row ``i`` takes part in its first ``length_i // block`` blocks
and no more), so the work done is the sum of the key lengths, not rows
times the longest. The tail needs no branch: every row reads the one
word after its last full block, masked down to its ``length_i % block``
remaining bytes — the word zero padding would give — and MurmurHash3's
tail mix of an all-zero word is the identity, exactly the scalar code's
"no tail" case. One very long key among many short ones costs its own
length: rows are hashed in length-sorted slabs of bounded size.

All arithmetic uses unsigned NumPy dtypes, where overflow wraps modulo
``2**w`` exactly like the masked scalar code.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.hashing.murmur3 import _to_bytes

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Most bytes one gathered key matrix may hold (one row is always
#: allowed). Keys arrive from outside — CSV cells, HTTP bodies — so a
#: single huge key must not multiply by the row count.
_SLAB_BYTES = 1 << 22

#: ``_TAIL_MASK*[t]`` keeps the low ``t`` bytes of a little-endian word.
_TAIL_MASK32 = np.array([(1 << (8 * t)) - 1 for t in range(4)], dtype=np.uint32)
_TAIL_MASK64 = np.array([(1 << (8 * t)) - 1 for t in range(9)], dtype=np.uint64)


def _active_rows(nblocks: np.ndarray) -> list[int]:
    """``[rows with more than j blocks for j in range(nblocks[0])]``.

    ``nblocks`` is sorted descending, so each count is a prefix length.
    """
    m = nblocks.shape[0]
    return (
        m - np.searchsorted(nblocks[::-1], np.arange(1, int(nblocks[0]) + 1))
    ).tolist()


# -- 32-bit kernel ----------------------------------------------------------


def _rotl32v(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint32(r)) | (x >> np.uint32(32 - r))


def _fmix32v(h: np.ndarray) -> np.ndarray:
    h = h ^ (h >> np.uint32(16))
    h *= np.uint32(0x85EBCA6B)
    h ^= h >> np.uint32(13)
    h *= np.uint32(0xC2B2AE35)
    h ^= h >> np.uint32(16)
    return h


def _mix_k1_32(k1: np.ndarray) -> np.ndarray:
    k1 = k1 * np.uint32(0xCC9E2D51)
    k1 = _rotl32v(k1, 15)
    k1 *= np.uint32(0x1B873593)
    return k1


def _murmur3_32_rows(data: np.ndarray, lengths: np.ndarray, seed: int) -> np.ndarray:
    """MurmurHash3 x86_32 of the first ``lengths[i]`` bytes of each row.

    ``data`` is a C-contiguous ``(m, 4w)`` uint8 matrix with
    ``w > lengths[0] // 4``; rows are sorted longest first. Bytes past a
    row's length may hold anything.
    """
    words = data.view("<u4")
    m = lengths.shape[0]
    h1 = np.full(m, seed & _MASK32, dtype=np.uint32)
    nblocks = lengths >> 2
    for j, count in enumerate(_active_rows(nblocks)):
        head = h1[:count]
        head ^= _mix_k1_32(words[:count, j])
        head[:] = _rotl32v(head, 13)
        head *= np.uint32(5)
        head += np.uint32(0xE6546B64)

    tail = words[np.arange(m), nblocks] & _TAIL_MASK32[lengths & 3]
    h1 ^= _mix_k1_32(tail)

    h1 ^= lengths.astype(np.uint32)
    return _fmix32v(h1)


# -- 64-bit kernel ----------------------------------------------------------

_C1_64 = np.uint64(0x87C37B91114253D5)
_C2_64 = np.uint64(0x4CF5AD432745937F)


def _rotl64v(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def _fmix64v(k: np.ndarray) -> np.ndarray:
    k = k ^ (k >> np.uint64(33))
    k *= np.uint64(0xFF51AFD7ED558CCD)
    k ^= k >> np.uint64(33)
    k *= np.uint64(0xC4CEB9FE1A85EC53)
    k ^= k >> np.uint64(33)
    return k


def _mix_k1_64(k1: np.ndarray) -> np.ndarray:
    k1 = k1 * _C1_64
    k1 = _rotl64v(k1, 31)
    k1 *= _C2_64
    return k1


def _mix_k2_64(k2: np.ndarray) -> np.ndarray:
    k2 = k2 * _C2_64
    k2 = _rotl64v(k2, 33)
    k2 *= _C1_64
    return k2


def _murmur3_x64_64_rows(
    data: np.ndarray, lengths: np.ndarray, seed: int
) -> np.ndarray:
    """First 64 bits of MurmurHash3 x64_128 of each row's first
    ``lengths[i]`` bytes; ``data`` is ``(m, 16w)`` with
    ``w > lengths[0] // 16``, otherwise as :func:`_murmur3_32_rows`."""
    words = data.view("<u8")
    m = lengths.shape[0]
    h1 = np.full(m, seed & _MASK64, dtype=np.uint64)
    h2 = h1.copy()
    nblocks = lengths >> 4
    for j, count in enumerate(_active_rows(nblocks)):
        head1 = h1[:count]
        head2 = h2[:count]
        head1 ^= _mix_k1_64(words[:count, 2 * j])
        head1[:] = _rotl64v(head1, 27)
        head1 += head2
        head1 *= np.uint64(5)
        head1 += np.uint64(0x52DCE729)

        head2 ^= _mix_k2_64(words[:count, 2 * j + 1])
        head2[:] = _rotl64v(head2, 31)
        head2 += head1
        head2 *= np.uint64(5)
        head2 += np.uint64(0x38495AB5)

    # Tail of 0-15 bytes: k1 takes the first eight, k2 the rest.
    rows = np.arange(m)
    tlen = lengths & 15
    k2 = words[rows, 2 * nblocks + 1] & _TAIL_MASK64[np.maximum(tlen - 8, 0)]
    h2 ^= _mix_k2_64(k2)
    k1 = words[rows, 2 * nblocks] & _TAIL_MASK64[np.minimum(tlen, 8)]
    h1 ^= _mix_k1_64(k1)

    nbytes = lengths.astype(np.uint64)
    h1 ^= nbytes
    h2 ^= nbytes

    h1 += h2
    h2 += h1

    h1 = _fmix64v(h1)
    h2 = _fmix64v(h2)

    h1 += h2
    return h1


class _Kernel(NamedTuple):
    rows: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    block: int  # bytes per MurmurHash3 block
    dtype: type


_KERNEL_32 = _Kernel(_murmur3_32_rows, 4, np.uint32)
_KERNEL_64 = _Kernel(_murmur3_x64_64_rows, 16, np.uint64)


def _hash_ragged(
    blob: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    seed: int,
    kernel: _Kernel,
) -> np.ndarray:
    """Hash key ``i`` = ``blob[starts[i] : starts[i] + lengths[i]]``.

    Sorts the keys longest first and hands the kernel one gathered matrix
    per slab of at most ``_SLAB_BYTES`` (a window of the slab's widest
    key's padded width starting at each key, so bytes past a key's own
    length belong to its neighbours — the kernel never reads them).
    """
    m = lengths.shape[0]
    out = np.empty(m, dtype=kernel.dtype)
    if m == 0:
        return out
    block = kernel.block
    order = np.argsort(-lengths)
    widest = (int(lengths[order[0]]) // block + 1) * block
    padded = np.concatenate([blob, np.zeros(widest, dtype=np.uint8)])
    done = 0
    while done < m:
        width = (int(lengths[order[done]]) // block + 1) * block
        rows = order[done : done + max(1, _SLAB_BYTES // width)]
        windows = as_strided(
            padded, (padded.shape[0] - width + 1, width), (1, 1), writeable=False
        )
        data = windows[starts[rows]]
        out[rows] = kernel.rows(data, lengths[rows], seed)
        done += rows.shape[0]
    return out


# -- key sequences to concatenated bytes ------------------------------------


def _concatenated(encoded: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(blob, starts, lengths)`` of already-encoded byte strings."""
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return blob, np.cumsum(lengths) - lengths, lengths


def _concatenated_utf8(keys: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_concatenated([k.encode("utf-8") for k in keys])`` in bulk passes:
    one join, one encode, one ``len`` map."""
    text = "".join(keys)
    blob = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    chars = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
    ends = np.cumsum(chars)
    if blob.size != len(text):
        # Non-ASCII: a key's bytes run between the lead bytes of its
        # first code point and of the next key's (continuation bytes
        # are 0b10xxxxxx).
        lead = np.flatnonzero((blob & 0xC0) != 0x80)
        ends = np.append(lead, blob.size)[ends]
    lengths = np.diff(ends, prepend=0)
    return blob, ends - lengths, lengths


# -- native-dtype fast paths ------------------------------------------------
#
# Integer, float and bool arrays never round-trip through Python objects:
# their canonical `_to_bytes` encodings are reproduced with array ops and
# handed to the kernel as fixed-stride rows.


def _int_encoding_lengths(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Per-element minimal signed-LE byte length, mirroring `_to_bytes`.

    Returns ``(widened_values, lengths, signed)``. Python encodes an int in
    ``max(1, (bit_length + 8) // 8)`` bytes; ``bit_length`` of magnitude
    ``a`` reaches ``8j`` exactly when ``a >= 2**(8j - 1)``.
    """
    signed = arr.dtype.kind == "i"
    if signed:
        wide = arr.astype(np.int64)
        u = wide.astype(np.uint64)
        mag = np.where(wide >= 0, u, np.uint64(0) - u)
    else:
        wide = arr.astype(np.uint64)
        mag = wide
    lengths = np.ones(arr.shape[0], dtype=np.int64)
    for j in range(1, 9):
        lengths += mag >= np.uint64(1 << (8 * j - 1))
    return wide, lengths, signed


def _int_byte_matrix(wide: np.ndarray, signed: bool) -> np.ndarray:
    """Nine-byte two's-complement LE rows; an integer's minimal encoding
    is a prefix of its row."""
    mat = np.empty((wide.shape[0], 9), dtype=np.uint8)
    mat[:, :8] = wide.astype(f"<{wide.dtype.kind}8").view(np.uint8).reshape(-1, 8)
    # Only |k| >= 2**63 needs the ninth byte: the explicit sign byte.
    mat[:, 8] = np.where(wide < 0, 0xFF, 0) if signed else 0
    return mat


def _float_byte_matrix(arr: np.ndarray) -> np.ndarray:
    """Big-endian IEEE-754 rows, mirroring ``struct.pack(">d", x)``."""
    be = np.ascontiguousarray(arr, dtype=">f8")
    return be.view(np.uint8).reshape(arr.shape[0], 8)


def _bool_byte_matrix(arr: np.ndarray) -> np.ndarray:
    """The 3-byte tagged encodings ``b"\\xfe\\xfd\\x01"`` / ``...\\x00``."""
    mat = np.empty((arr.shape[0], 3), dtype=np.uint8)
    mat[:, 0] = 0xFE
    mat[:, 1] = 0xFD
    mat[:, 2] = arr.astype(np.uint8)
    return mat


def _hash_matrix(
    mat: np.ndarray, seed: int, kernel: _Kernel, lengths: np.ndarray | None = None
) -> np.ndarray:
    """Hash the first ``lengths[i]`` (default: all) bytes of each row."""
    m, stride = mat.shape
    if lengths is None:
        lengths = np.full(m, stride, dtype=np.int64)
    starts = np.arange(m, dtype=np.int64) * stride
    return _hash_ragged(mat.reshape(-1), starts, lengths, seed, kernel)


def _hash_batch(keys, seed: int, kernel: _Kernel) -> np.ndarray:
    if isinstance(keys, np.ndarray) and keys.ndim == 1:
        kind = keys.dtype.kind
        if kind in "iu":
            wide, lengths, signed = _int_encoding_lengths(keys)
            return _hash_matrix(_int_byte_matrix(wide, signed), seed, kernel, lengths)
        if kind == "f":
            # float16/32 keys widen to float64 first, exactly like the
            # scalar path's float(key) conversion.
            return _hash_matrix(
                _float_byte_matrix(keys.astype(np.float64)), seed, kernel
            )
        if kind == "b":
            return _hash_matrix(_bool_byte_matrix(keys), seed, kernel)
        # Same objects `_to_bytes` would unwrap one `.item()` at a time
        # (a `<U` array's strings, an object array's elements).
        keys = keys.tolist()
    if set(map(type, keys)) == {str}:
        parts = _concatenated_utf8(keys)
    else:
        parts = _concatenated([_to_bytes(k) for k in keys])
    return _hash_ragged(*parts, seed, kernel)


def murmur3_32_bytes_batch(encoded: Sequence[bytes], seed: int = 0) -> np.ndarray:
    """32-bit hash of each byte string; equals ``murmur3_32(b, seed)``."""
    return _hash_ragged(*_concatenated(encoded), seed, _KERNEL_32)


def murmur3_x64_64_bytes_batch(
    encoded: Sequence[bytes], seed: int = 0
) -> np.ndarray:
    """64-bit hash of each byte string; equals ``murmur3_x64_64(b, seed)``."""
    return _hash_ragged(*_concatenated(encoded), seed, _KERNEL_64)


def murmur3_32_batch(keys, seed: int = 0) -> np.ndarray:
    """Vectorized ``murmur3_32`` over a key array/sequence.

    Elementwise identical to the scalar function for every key type the
    scalar ``_to_bytes`` canonicalization supports. Numeric/bool NumPy
    arrays are encoded with array operations; a sequence holding only
    ``str`` (a list, an object array, a ``<U`` array) is joined and
    UTF-8 encoded in one pass; any other sequence (``bytes``, mixed
    types) is encoded one ``_to_bytes`` call per key. All of them are
    hashed by the same ragged kernel, whatever their key lengths.
    """
    return _hash_batch(keys, seed, _KERNEL_32)


def murmur3_x64_64_batch(keys, seed: int = 0) -> np.ndarray:
    """Vectorized ``murmur3_x64_64`` over a key array/sequence (same
    routes and kernel structure as :func:`murmur3_32_batch`)."""
    return _hash_batch(keys, seed, _KERNEL_64)


# -- one-permutation MinHash bucketing ---------------------------------------
#
# The LSH retrieval backend (repro/index/lsh.py) buckets the ``2**bits``
# key-hash space into ``n_slots`` equal ranges and keeps the minimum hash
# per range. These kernels vectorize that bucketing; like the hash
# kernels above, each is elementwise identical to its scalar reference
# (``MinHashSignature.from_key_hashes``).

#: Placeholder value of slots no hash fell into; always paired with a
#: boolean ``filled`` mask, so a genuine key hash of the same value is
#: still distinguished from an empty slot.
_SLOT_EMPTY = np.uint64(0xFFFFFFFFFFFFFFFF)


def minhash_slot_index_batch(
    key_hashes: np.ndarray, n_slots: int, bits: int
) -> np.ndarray:
    """Slot index ``min(n_slots - 1, kh * n_slots // 2**bits)`` per hash.

    Exact for both hash widths: the 32-bit product fits ``uint64``
    directly; the 64-bit path emulates the 128-bit product with two
    32-bit halves (``kh = hi·2³² + lo`` gives
    ``⌊kh·n / 2⁶⁴⌋ = ⌊(hi·n + ⌊lo·n / 2³²⌋) / 2³²⌋``, every intermediate
    below ``2⁶⁴`` for any realistic slot count).
    """
    if n_slots <= 0:
        raise ValueError(f"n_slots must be positive, got {n_slots}")
    kh = np.asarray(key_hashes, dtype=np.uint64)
    ns = np.uint64(n_slots)
    if bits <= 32:
        idx = (kh * ns) >> np.uint64(bits)
    else:
        lo = kh & np.uint64(0xFFFFFFFF)
        hi = kh >> np.uint64(32)
        idx = (hi * ns + ((lo * ns) >> np.uint64(32))) >> np.uint64(32)
    return np.minimum(idx, np.uint64(n_slots - 1)).astype(np.int64)


def one_permutation_signature(
    key_hashes: np.ndarray, n_slots: int, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """One-permutation MinHash signature of one key-hash set.

    Returns ``(slots, filled)``: the minimum hash per slot (``uint64``)
    and a boolean mask marking slots at least one hash fell into.
    Unfilled slots hold a placeholder value; consumers must honor the
    mask rather than compare against it.
    """
    kh = np.asarray(key_hashes, dtype=np.uint64).ravel()
    slots = np.full(n_slots, _SLOT_EMPTY, dtype=np.uint64)
    filled = np.zeros(n_slots, dtype=bool)
    if kh.size:
        idx = minhash_slot_index_batch(kh, n_slots, bits)
        np.minimum.at(slots, idx, kh)
        filled[idx] = True
    return slots, filled


def one_permutation_signatures_batch(
    concat_hashes: np.ndarray, indptr: np.ndarray, n_slots: int, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR-batched :func:`one_permutation_signature` over many key sets.

    ``indptr`` delimits each set's slice of ``concat_hashes`` (length
    ``n_sets + 1``). All signatures are bucketed with a single
    ``np.minimum.at`` scatter into one flat ``(n_sets · n_slots)``
    buffer; row ``i`` of the returned ``(n_sets, n_slots)`` matrices
    equals ``one_permutation_signature(concat_hashes[indptr[i]:indptr[i+1]], …)``.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    n_sets = indptr.shape[0] - 1
    slots = np.full(n_sets * n_slots, _SLOT_EMPTY, dtype=np.uint64)
    filled = np.zeros(n_sets * n_slots, dtype=bool)
    kh = np.asarray(concat_hashes, dtype=np.uint64).ravel()
    if kh.size:
        rows = np.repeat(np.arange(n_sets, dtype=np.int64), np.diff(indptr))
        idx = rows * n_slots + minhash_slot_index_batch(kh, n_slots, bits)
        np.minimum.at(slots, idx, kh)
        filled[idx] = True
    return slots.reshape(n_sets, n_slots), filled.reshape(n_sets, n_slots)
