"""Contiguous mmap-able arena files: the zero-copy snapshot container.

A snapshot whose arrays must be copied into the process heap costs
O(catalog bytes) of cold start *per process*, and two serving processes
hold two private copies of the same frozen arrays. The arena is the
zero-copy container: every numeric array is packed into **one**
contiguous file at a 64-byte-aligned offset, with a
small JSON header describing the extents, so a reader can map the whole
file once (read-only ``mmap`` wrapped by ``np.frombuffer``) and hand
out read-only array views into the mapping —

* load time is O(metadata): parse the header, map the file, build
  views. No array data is read until a query touches it (the kernel
  faults pages in on demand);
* the mapped pages are file-backed and shared: every process serving
  the same arena references the same physical pages through the page
  cache, so N processes cost one catalog's worth of resident memory,
  not N;
* views are read-only (``ACCESS_READ``), so nothing can scribble on
  the shared pages; mutations go to heap-native delta structures
  (see the copy-on-mutation rules in
  :class:`repro.index.catalog.SketchCatalog`).

File layout::

    [0:8)    magic  b"RSKARENA"
    [8:16)   header length H (uint64, little-endian)
    [16:16+H) header JSON (utf-8)
    ...      zero padding to the next 64-byte boundary (= data start)
    ...      array payloads, each 64-byte aligned, in header order

The header carries everything non-numeric (format version, catalog
config, string members) plus an ``arrays`` table of
``name -> {dtype, shape, offset}`` extents with offsets relative to the
data start — relative offsets keep the header's own length out of the
layout computation. What the header *means* is defined by the snapshot
module; this module only knows how to pack and map arrays.

Writes are atomic *and durable* (:func:`atomic_write`): the payload
lands in a temp file in the target directory, the temp file is
fsynced, ``os.replace`` swaps it in, and the containing directory
is fsynced — so a crash mid-save can never corrupt an existing
snapshot, a power loss after a completed save cannot lose the published
file, and replacing an arena under a live mapping is safe (POSIX keeps
the old inode alive for existing mappings; the old catalog keeps
serving its old bytes). The header additionally carries a CRC32 of the
packed payload (``payload_crc32``), verified on demand by
:meth:`ArenaReader.verify_payload` — never on load, which must stay
O(metadata). Every arena this version writes records one, so a header
without it is corrupt.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
import sys
import tempfile
import zlib
from pathlib import Path
from typing import Callable

import numpy as np

#: Leading magic of every arena file (8 bytes, never valid zip or JSON).
MAGIC = b"RSKARENA"

#: Array payloads start on multiples of this (covers every numeric dtype
#: alignment and matches cache-line size).
ALIGNMENT = 64

#: magic + uint64 header length.
_PREFIX_BYTES = 16


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


def _fault(site: str, **context) -> None:
    """Fire an injected fault when the fault module is loaded and armed.

    Checked via ``sys.modules`` so a process that never imports
    :mod:`repro.serving.faults` pays nothing here — a plan cannot exist
    without that module being imported first.
    """
    faults = sys.modules.get("repro.serving.faults")
    if faults is not None:
        faults.maybe_fire(site, **context)


def has_arena_magic(path: str | Path) -> bool:
    """True when the file starts with the arena magic bytes."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


# -- atomic persistence -------------------------------------------------------


def atomic_write(path: str | Path, write: Callable) -> None:
    """Write a file atomically and durably: temp file in the target
    directory, fsync, ``os.replace`` into place, fsync the directory.

    ``write`` receives the open binary file object. On any failure the
    temp file is removed and the original (if any) is untouched — the
    shared crash-safety primitive behind every snapshot, arena, JSON
    catalog and manifest write. The fsync pair closes the durability
    gap ``os.replace`` alone leaves open: without it a power loss can
    publish a rename whose data pages (or directory entry) never
    reached disk, leaving a torn or missing "committed" file.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent if str(path.parent) else ".",
        prefix=f".{path.name}.",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            handle.flush()
            _fault("fsync", path=path, target="file")
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        _fault("fsync", path=path, target="dir")
        _fsync_directory(path.parent if str(path.parent) else Path("."))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _fsync_directory(directory: Path) -> None:
    """fsync a directory so a just-published rename survives power loss.

    Best-effort on platforms/filesystems where directories cannot be
    opened or synced (``O_DIRECTORY`` is POSIX-only).
    """
    flag = getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(directory, os.O_RDONLY | flag)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str | Path, text: str) -> None:
    """:func:`atomic_write` for text payloads (JSON catalogs, manifests)."""
    atomic_write(path, lambda handle: handle.write(text.encode("utf-8")))


# -- writing ------------------------------------------------------------------


def write_arena(
    path: str | Path, meta: dict, arrays: dict[str, np.ndarray]
) -> None:
    """Pack ``arrays`` into one aligned arena file with ``meta`` as header.

    ``meta`` must be JSON-serializable and must not contain an
    ``"arrays"``, ``"data_bytes"`` or ``"payload_crc32"`` key (all are
    filled in here). Each array is written C-contiguous at a
    64-byte-aligned offset; the header records ``{dtype, shape,
    offset}`` per array, offsets relative to the (aligned) end of the
    header, plus a CRC32 over the entire data region (padding
    included). The write is atomic and durable.
    """
    reserved = ("arrays", "data_bytes", "payload_crc32")
    if any(key in meta for key in reserved):
        raise ValueError(f"meta must not predefine any of {reserved}")
    payload: list[tuple[int, np.ndarray]] = []
    extents: dict[str, dict] = {}
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = _align(offset)
        extents[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
        }
        payload.append((offset, array))
        offset += array.nbytes
    crc = 0
    position = 0
    for rel, array in payload:
        crc = zlib.crc32(b"\0" * (rel - position), crc)
        crc = zlib.crc32(memoryview(array).cast("B"), crc)
        position = rel + array.nbytes
    header = dict(meta)
    header["arrays"] = extents
    header["data_bytes"] = offset
    header["payload_crc32"] = crc
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    data_start = _align(_PREFIX_BYTES + len(header_bytes))

    def _write(handle) -> None:
        handle.write(MAGIC)
        handle.write(struct.pack("<Q", len(header_bytes)))
        handle.write(header_bytes)
        handle.write(b"\0" * (data_start - _PREFIX_BYTES - len(header_bytes)))
        position = 0
        for rel, array in payload:
            handle.write(b"\0" * (rel - position))
            handle.write(memoryview(array).cast("B"))
            position = rel + array.nbytes

    atomic_write(path, _write)


# -- reading ------------------------------------------------------------------


class ArenaReader:
    """One read-only mapping of an arena file, handing out array views.

    The reader owns a single read-only ``mmap`` over the whole file,
    exposed as one plain byte ``ndarray`` (``np.frombuffer``, *not*
    :class:`numpy.memmap` — every candidate a query touches slices the
    mapping a few times, and plain-ndarray views skip the memmap
    subclass's per-slice bookkeeping). Every :meth:`array` call is a
    zero-copy, read-only view into it. Holding any view keeps the
    mapping (and, on POSIX, the underlying inode — even a deleted or
    replaced one) alive.
    """

    def __init__(self, path: str | Path) -> None:
        path = Path(path)
        with open(path, "rb") as handle:
            prefix = handle.read(_PREFIX_BYTES)
            if len(prefix) < _PREFIX_BYTES or prefix[:8] != MAGIC:
                raise ValueError(f"{path} is not an arena snapshot")
            (header_length,) = struct.unpack("<Q", prefix[8:])
            # Bounded by the file before it sizes a read: the length is
            # eight bytes of outside input.
            if header_length > os.fstat(handle.fileno()).st_size:
                raise ValueError(f"truncated arena header in {path}")
            header_bytes = handle.read(header_length)
            if len(header_bytes) != header_length:
                raise ValueError(f"truncated arena header in {path}")
            try:
                self.meta: dict = json.loads(header_bytes.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ValueError(
                    f"corrupt arena header in {path}: {exc}"
                ) from exc
            # The mapping outlives the descriptor (POSIX keeps mapped
            # pages valid after close).
            self._buffer = mmap.mmap(
                handle.fileno(), 0, access=mmap.ACCESS_READ
            )
        self.path = path
        self.header_bytes = _PREFIX_BYTES + header_length
        self.extents: dict[str, dict] = self.meta.get("arrays", {})
        self.data_bytes = int(self.meta.get("data_bytes", 0))
        self._data_start = _align(self.header_bytes)
        expected = self._data_start + self.data_bytes
        self._map = np.frombuffer(self._buffer, dtype=np.uint8)
        if self._map.shape[0] < expected:
            raise ValueError(
                f"truncated arena {path}: {self._map.shape[0]} bytes on "
                f"disk, header promises {expected}"
            )

    def __contains__(self, name: str) -> bool:
        return name in self.extents

    def array(self, name: str) -> np.ndarray:
        """Read-only view of the named array (no data is read or copied).

        Raises:
            KeyError: for names the header does not list.
        """
        try:
            spec = self.extents[name]
        except KeyError:
            raise KeyError(
                f"no array {name!r} in arena {self.path} "
                f"(has: {sorted(self.extents)})"
            ) from None
        dtype = np.dtype(spec["dtype"])
        shape = tuple(spec["shape"])
        start = self._data_start + int(spec["offset"])
        nbytes = dtype.itemsize * math.prod(shape)
        return self._map[start : start + nbytes].view(dtype).reshape(shape)

    def verify_payload(self) -> bool:
        """Checksum the mapped data region against the header's CRC32:
        ``True`` when it matches. This reads every payload page, so it is
        an explicit verification step (``catalog verify``), never part
        of load.

        Raises:
            ValueError: the header records no checksum (a corrupt header).
        """
        recorded = self.meta.get("payload_crc32")
        if recorded is None:
            raise ValueError(f"corrupt arena header in {self.path}: no payload_crc32")
        region = self._map[self._data_start : self._data_start + self.data_bytes]
        return zlib.crc32(region) == recorded

    def owns(self, array: np.ndarray) -> bool:
        """True when ``array`` is a view into this arena's mapping."""
        base = array
        while base is not None:
            if base is self._map:
                return True
            base = getattr(base, "base", None)
        return False


# -- storage introspection ----------------------------------------------------


def backing_storage(*arrays: np.ndarray | None) -> str:
    """``"mmap"`` when any array is backed by a memory mapping, else
    ``"heap"``.

    Walks each array's ``base`` chain looking for a memory mapping —
    either an :class:`mmap.mmap` buffer at the end of the chain (the
    arena reader's single mapping, possibly behind the ``memoryview``
    that ``np.frombuffer`` interposes) or a :class:`numpy.memmap`
    anywhere along it. ``None`` entries are skipped, so callers can
    pass optional members directly.
    """
    for array in arrays:
        base = array
        while isinstance(base, np.ndarray):
            if isinstance(base, np.memmap):
                return "mmap"
            base = base.base
        if isinstance(base, memoryview):
            base = base.obj
        if isinstance(base, mmap.mmap):
            return "mmap"
    return "heap"
