"""Elementwise parity of the vectorized hashing layer with the scalar port.

The batch functions in :mod:`repro.hashing.vectorized` and the batch
Fibonacci maps must agree bit-for-bit with their scalar counterparts for
every supported key type — sketches built on the fast path must be
joinable with sketches built on the scalar path (Theorem 1 needs shared
keys to hash identically everywhere).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing import (
    KeyHasher,
    fibonacci_hash_32_batch,
    fibonacci_hash_64_batch,
    murmur3_32,
    murmur3_32_batch,
    murmur3_x64_64,
    murmur3_x64_64_batch,
    to_unit_interval_32,
    to_unit_interval_32_batch,
    to_unit_interval_64,
    to_unit_interval_64_batch,
)
from repro.hashing import vectorized
from repro.hashing.fibonacci import fibonacci_hash_32, fibonacci_hash_64
from repro.hashing.murmur3 import _to_bytes

SEEDS = (0, 7, 0xDEADBEEF)


def _assert_batch_matches(keys, scalar_keys=None):
    """Both murmur variants agree elementwise with the scalar functions."""
    scalar_keys = list(scalar_keys if scalar_keys is not None else keys)
    for seed in SEEDS:
        got32 = murmur3_32_batch(keys, seed)
        assert got32.dtype == np.uint32
        assert [int(x) for x in got32] == [murmur3_32(k, seed) for k in scalar_keys]
        got64 = murmur3_x64_64_batch(keys, seed)
        assert got64.dtype == np.uint64
        assert [int(x) for x in got64] == [
            murmur3_x64_64(k, seed) for k in scalar_keys
        ]


@given(
    blobs=st.lists(st.binary(min_size=0, max_size=40), min_size=0, max_size=60),
    seed=st.sampled_from(SEEDS),
)
@settings(max_examples=40, deadline=None)
def test_bytes_batch_parity(blobs, seed):
    got = murmur3_32_batch(blobs, seed)
    assert [int(x) for x in got] == [murmur3_32(b, seed) for b in blobs]
    got = murmur3_x64_64_batch(blobs, seed)
    assert [int(x) for x in got] == [murmur3_x64_64(b, seed) for b in blobs]


@given(
    strings=st.lists(
        st.text(min_size=0, max_size=24), min_size=0, max_size=60
    )
)
@settings(max_examples=40, deadline=None)
def test_string_batch_parity(strings):
    """Unicode strings (including multi-byte code points) hash identically."""
    _assert_batch_matches(strings)


# -- the ragged kernel: every route into it, against the scalar port ---------

# 0-40 bytes once encoded: every tail length of both kernels (0-3 / 0-15)
# on either side of zero, one and two full blocks.
ascii_key = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=40
)
unicode_key = st.text(max_size=10)  # 1-4 UTF-8 bytes per code point
mixed_key = st.one_of(
    ascii_key,
    unicode_key,
    st.binary(max_size=40),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.tuples(st.integers(), ascii_key),
)


def _scalar(keys, seed):
    return (
        [murmur3_32(k, seed) for k in keys],
        [murmur3_x64_64(k, seed) for k in keys],
    )


def _batch(keys, seed):
    return (
        murmur3_32_batch(keys, seed).tolist(),
        murmur3_x64_64_batch(keys, seed).tolist(),
    )


@given(
    keys=st.lists(st.one_of(ascii_key, unicode_key), max_size=60),
    seed=st.sampled_from(SEEDS),
)
@settings(max_examples=120, deadline=None)
def test_str_sequences_hash_like_scalar(keys, seed):
    """An all-``str`` list, object array and ``<U`` array take the bulk
    encoding route; each must hash the UTF-8 bytes the scalar port does
    (empty strings, non-ASCII code points and every length included)."""
    expected = _scalar(keys, seed)
    assert _batch(keys, seed) == expected
    assert _batch(tuple(keys), seed) == expected
    assert _batch(np.array(keys, dtype=object), seed) == expected
    # A ``<U`` array drops trailing NULs; the scalar port sees the same
    # ``np.str_`` elements, so parity is against what the array holds.
    fixed_width = np.array(keys, dtype=str)
    assert _batch(fixed_width, seed) == _scalar(list(fixed_width), seed)


@given(keys=st.lists(mixed_key, max_size=40), seed=st.sampled_from(SEEDS))
@settings(max_examples=120, deadline=None)
def test_mixed_type_sequences_hash_like_scalar(keys, seed):
    """One non-``str`` key sends the sequence through ``_to_bytes`` per
    key — into the same kernel."""
    expected = _scalar(keys, seed)
    assert _batch(keys, seed) == expected
    boxed = np.empty(len(keys), dtype=object)
    boxed[:] = keys
    assert _batch(boxed, seed) == expected


def test_bytes_array_and_bytes_batch_routes():
    blobs = [b"", b"a", b"abcd", b"\x00\x00", b"x" * 37, bytes(range(40))]
    for seed in SEEDS:
        expected = _scalar(blobs, seed)
        assert _batch(blobs, seed) == expected
        assert vectorized.murmur3_32_bytes_batch(blobs, seed).tolist() == expected[0]
        assert (
            vectorized.murmur3_x64_64_bytes_batch(blobs, seed).tolist()
            == expected[1]
        )
    fixed_width = np.array([b"ab", b"", b"abcdefghi"])  # dtype S9
    assert _batch(fixed_width, 7) == _scalar(list(fixed_width), 7)


def test_length_skew_is_hashed_in_slabs(monkeypatch):
    """One long key among short ones: the length-sorted slabs must cover
    every row exactly once and restore the input order."""
    rng = random.Random(3)
    keys = ["k%d" % i for i in range(50)] + ["y" * 1000, "", "z" * 257, "é" * 99]
    rng.shuffle(keys)
    expected = _scalar(keys, 7)
    assert _batch(keys, 7) == expected
    monkeypatch.setattr(vectorized, "_SLAB_BYTES", 64)
    assert _batch(keys, 7) == expected
    ints = np.array([0, 2**62, -1, 300, 2**40, 5] * 20, dtype=np.int64)
    assert _batch(ints, 7) == _scalar(ints.tolist(), 7)


def test_int_array_parity_edge_cases():
    """The minimal signed-LE encoding, including every byte-length bucket.

    ``-2**63`` is the one int64 whose magnitude needs a ninth (pure sign)
    byte — the scalar ``int.to_bytes`` path and the vectorized byte-matrix
    builder must agree on it too.
    """
    edges = [
        0, 1, -1, 127, 128, -128, -129, 255, 256, -256,
        2**15 - 1, -(2**15), 2**31 - 1, -(2**31), 2**53,
        2**63 - 1, -(2**63), -(2**62),
    ]
    rng = random.Random(0)
    edges += [rng.randrange(-(2**63), 2**63) for _ in range(300)]
    arr = np.array(edges, dtype=np.int64)
    _assert_batch_matches(arr, scalar_keys=[int(v) for v in edges])


def test_unsigned_and_narrow_int_dtypes():
    uarr = np.array(
        [0, 1, 255, 2**31, 2**63, 2**64 - 1, 12345678901234567890],
        dtype=np.uint64,
    )
    _assert_batch_matches(uarr, scalar_keys=[int(v) for v in uarr])
    for dtype in (np.int8, np.int16, np.int32, np.uint8, np.uint16, np.uint32):
        info = np.iinfo(dtype)
        arr = np.array([info.min, -1 if info.min < 0 else 0, 0, 1, info.max], dtype=dtype)
        _assert_batch_matches(arr, scalar_keys=[int(v) for v in arr])


def test_float_and_bool_array_parity():
    farr = np.array(
        [0.0, -0.0, 1.5, -3.25, 1e-300, 1e300, np.inf, -np.inf], dtype=np.float64
    )
    _assert_batch_matches(farr, scalar_keys=[float(v) for v in farr])
    # Narrow floats widen to float64 first, like the scalar float() call.
    f32 = np.array([0.5, -2.0, 100.25], dtype=np.float32)
    _assert_batch_matches(f32, scalar_keys=[float(v) for v in f32])
    barr = np.array([True, False, True, True])
    _assert_batch_matches(barr, scalar_keys=[bool(v) for v in barr])


def test_numpy_scalars_unwrap_in_to_bytes():
    """np.int64(5) must canonicalize (and hash) exactly like 5."""
    assert _to_bytes(np.int64(5)) == _to_bytes(5)
    assert _to_bytes(np.uint32(7)) == _to_bytes(7)
    assert _to_bytes(np.float64(1.5)) == _to_bytes(1.5)
    assert _to_bytes(np.bool_(True)) == _to_bytes(True)
    assert _to_bytes(np.str_("abc")) == _to_bytes("abc")


def test_empty_inputs():
    assert murmur3_32_batch([], 0).shape == (0,)
    assert murmur3_x64_64_batch(np.array([], dtype=np.int64), 0).shape == (0,)


@pytest.mark.parametrize("bits", [32, 64])
def test_keyhasher_batch_matches_scalar(bits):
    hasher = KeyHasher(bits=bits, seed=11)
    keys = [f"key-{i}" for i in range(200)] + ["", "naïve", "日本語"]
    key_hashes = hasher.hash_batch(keys)
    assert [int(x) for x in key_hashes] == [hasher.key_hash(k) for k in keys]
    units = hasher.unit_hash_batch(key_hashes)
    assert units.dtype == np.float64
    assert [float(u) for u in units] == [hasher.hash(k).unit_hash for k in keys]


def test_fibonacci_batch_parity():
    rng = np.random.default_rng(1)
    v32 = rng.integers(0, 2**32, size=500, dtype=np.uint64)
    got = fibonacci_hash_32_batch(v32)
    assert [int(x) for x in got] == [fibonacci_hash_32(int(v)) for v in v32]
    got = to_unit_interval_32_batch(v32)
    assert [float(x) for x in got] == [to_unit_interval_32(int(v)) for v in v32]

    v64 = rng.integers(0, 2**64, size=500, dtype=np.uint64)
    got = fibonacci_hash_64_batch(v64)
    assert [int(x) for x in got] == [fibonacci_hash_64(int(v)) for v in v64]
    got = to_unit_interval_64_batch(v64)
    assert [float(x) for x in got] == [to_unit_interval_64(int(v)) for v in v64]
