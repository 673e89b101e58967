"""Fibonacci (golden-ratio multiplicative) hashing.

The paper implements ``h_u`` — the map from tuple-identifier integers to
uniform reals in ``[0, 1)`` — with *Fibonacci hashing* (Knuth, TAoCP vol. 3
§6.4): multiply by ``floor(2**w / φ)`` modulo ``2**w`` and divide by
``2**w``. The multiplier is chosen so consecutive integers scatter
far apart; for hash-distributed input it behaves like a uniform map while
costing a single multiply.

A useful structural property (exploited in Figure 2 of the paper): the
unit-interval value never needs to be *stored* in a sketch because it can
always be recomputed from the stored key hash ``h(k)``.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: ``floor(2**32 / φ)``, forced odd (Knuth's recommendation) — 2654435769.
FIB_MULTIPLIER_32 = 2654435769

#: ``floor(2**64 / φ)``, forced odd — 11400714819323198485.
FIB_MULTIPLIER_64 = 11400714819323198485


def fibonacci_hash_32(value: int) -> int:
    """Scramble a 32-bit integer with the golden-ratio multiplier."""
    return (value * FIB_MULTIPLIER_32) & _MASK32


def fibonacci_hash_64(value: int) -> int:
    """Scramble a 64-bit integer with the golden-ratio multiplier."""
    return (value * FIB_MULTIPLIER_64) & _MASK64


def to_unit_interval_32(value: int) -> float:
    """Map a 32-bit integer to ``[0, 1)`` via Fibonacci hashing.

    This is the paper's ``h_u`` for 32-bit tuple identifiers.
    """
    return fibonacci_hash_32(value) / 4294967296.0  # 2**32


def to_unit_interval_64(value: int) -> float:
    """Map a 64-bit integer to ``[0, 1)`` via Fibonacci hashing."""
    return fibonacci_hash_64(value) / 18446744073709551616.0  # 2**64


# -- vectorized variants ----------------------------------------------------
#
# A single multiply maps a whole array of tuple identifiers to the unit
# interval. Unsigned NumPy arithmetic wraps modulo 2**w exactly like the
# masked scalar code, and scaling by the exact power of two afterwards is
# lossless, so each element is bit-identical to the scalar function — the
# property CorrelationSketch.update_array's parity guarantee rests on, and
# the reason a sketch never stores its ranks (SketchColumns.ranks derives
# them from the key hashes).


def fibonacci_hash_32_batch(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`fibonacci_hash_32` over an integer array."""
    return np.asarray(values).astype(np.uint32) * np.uint32(FIB_MULTIPLIER_32)


def fibonacci_hash_64_batch(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`fibonacci_hash_64` over an integer array."""
    return np.asarray(values).astype(np.uint64) * np.uint64(FIB_MULTIPLIER_64)


def _unit_interval_batch(values, dtype, multiplier: int, bits: int) -> np.ndarray:
    """Fibonacci-scramble ``values`` at width ``dtype`` and scale into
    ``[0, 1)``, in one fused pass over a single private copy: the cast to
    ``dtype`` (which truncates wider integers exactly as the scalar mask
    does) is scrambled in place, cast once to float64 and scaled in
    place by ``2**-bits`` — exact, so it equals dividing by ``2**bits``."""
    scrambled = np.asarray(values).astype(dtype)
    scrambled *= dtype(multiplier)
    units = scrambled.astype(np.float64)
    units *= 2.0**-bits
    return units


def to_unit_interval_32_batch(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`to_unit_interval_32`; returns float64 in [0, 1)."""
    return _unit_interval_batch(values, np.uint32, FIB_MULTIPLIER_32, 32)


def to_unit_interval_64_batch(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`to_unit_interval_64`; returns float64 in [0, 1)."""
    return _unit_interval_batch(values, np.uint64, FIB_MULTIPLIER_64, 64)


def to_unit_interval_batch(values: np.ndarray, bits: int) -> np.ndarray:
    """``h_u`` at ``bits`` (32 or 64) over an array of tuple identifiers:
    the ranks a sketch derives from its stored key hashes."""
    if bits == 32:
        return to_unit_interval_32_batch(values)
    return to_unit_interval_64_batch(values)
