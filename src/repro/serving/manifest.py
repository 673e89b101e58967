"""Manifest persistence for sharded catalogs.

A sharded catalog on disk is one directory:

.. code-block:: text

    catalog-dir/
        manifest.json     # config + placement (versioned)
        shard-0000.arena  # per-shard arena snapshots
        shard-0001.arena  #   (repro.index.snapshot format, one per shard)
        ...

``manifest.json`` is the small, human-inspectable source of truth for
everything that must be known *before* touching a shard file:

* ``version`` — manifest format version; exactly one generation is
  readable (:data:`MANIFEST_VERSION`). Anything else — the retired
  versions 1 and 2 included — is refused by :func:`read_manifest`
  rather than guessed at;
* catalog config — ``n_shards``, ``sketch_size``, ``aggregate`` and the
  hashing ``scheme`` pair;
* ``layout`` — always ``"arena"``: one mmap-able ``shard-NNNN.arena``
  per shard (:mod:`repro.index.arena`), so every shard materializes
  zero-copy and N serving processes mapping the same directory share
  one set of physical pages. A manifest recording the retired
  zip-of-``.npy`` layout is refused. (``layout`` and a constant
  ``"vectorized": true`` are still written so the file's bytes do not
  move; only ``layout`` is read, and only to refuse.)
* per shard: its snapshot ``file`` name — a function of the shard index
  (:func:`shard_file_name`), checked on read so a manifest can never
  point outside its own directory — its ``sketches`` count, its ``ids``
  in insertion order — the placement map — its ``index_version``
  compaction counter and the pending ``delta`` / ``tombstones`` counts
  (so ``catalog info`` reports delta state without opening a single shard
  file).

:meth:`ShardedCatalog.load <repro.serving.shards.ShardedCatalog.load>`
reads the manifest, rebuilds the ``sketch_id → shard`` map from it and
opens every shard snapshot once, checking each against its entry
(scheme, sketch count, compaction version), so a stale or swapped shard
snapshot is recorded as failed instead of silently serving the wrong
corpus. ``catalog info`` and ``catalog verify`` read the manifest and
the files alone.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.index.arena import atomic_write_text
from repro.index.snapshot import save_snapshot

if TYPE_CHECKING:
    from repro.serving.shards import ShardedCatalog

#: Bump on any manifest change; read_manifest reads exactly this
#: version rather than guessing.
MANIFEST_VERSION = 3

#: File name of the manifest inside a sharded-catalog directory.
MANIFEST_NAME = "manifest.json"


def shard_file_name(index: int) -> str:
    """Canonical snapshot file name for shard ``index``."""
    return f"shard-{index:04d}.arena"


def save_sharded(catalog: ShardedCatalog, directory: str | Path) -> Path:
    """Write ``catalog`` as a manifest directory; returns the manifest path.

    Every shard is persisted as an arena snapshot (warm frozen postings,
    LSH signatures when built, pending delta/tombstone state — see
    :mod:`repro.index.snapshot`); the manifest is written last — and
    atomically — so a crash mid-save never leaves a manifest pointing at
    missing shards.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    shards_payload = []
    for index in range(catalog.n_shards):
        name = shard_file_name(index)
        shard = catalog.shard(index)
        save_snapshot(shard, directory / name)
        # Recorded after shard.save: a never-frozen shard is promoted by
        # the snapshot writer, so the manifest sees the persisted state.
        shards_payload.append(
            {
                "file": name,
                "sketches": len(shard),
                "ids": list(shard),
                "index_version": shard.index_version,
                "delta": shard.delta_size,
                "tombstones": shard.tombstone_count,
            }
        )
    bits, seed = catalog.hasher.scheme_id
    manifest = {
        "version": MANIFEST_VERSION,
        "n_shards": catalog.n_shards,
        "sketch_size": catalog.sketch_size,
        "aggregate": catalog.aggregate,
        "scheme": [bits, seed],
        # Constants kept so the manifest's bytes do not move: the
        # retired construction flag and the only shard layout left.
        "vectorized": True,
        "layout": "arena",
        "shards": shards_payload,
    }
    path = directory / MANIFEST_NAME
    atomic_write_text(path, json.dumps(manifest, indent=2) + "\n")
    return path


def read_manifest(directory: str | Path) -> dict:
    """Parse and version-check a manifest directory's ``manifest.json``.

    Raises:
        FileNotFoundError: when the directory has no manifest.
        ValueError: for malformed JSON, any version but
            :data:`MANIFEST_VERSION`, the retired shard layout, a shard
            list inconsistent with ``n_shards`` or a shard ``file`` that
            is not the canonical name for its index.
    """
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    if not path.is_file():
        raise FileNotFoundError(
            f"no {MANIFEST_NAME} under {directory} — not a sharded catalog "
            "directory"
        )
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt manifest {path}: {exc}") from exc
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise ValueError(
            f"unsupported manifest version {version!r} in {path}: this "
            f"build reads version {MANIFEST_VERSION} only (versions 1 and "
            "2 are retired — rebuild the directory with `index --shards`)"
        )
    if manifest.get("layout") != "arena":
        raise ValueError(
            f"manifest {path} records shard layout "
            f"{manifest.get('layout')!r}: the .npz shard layout is retired "
            "and only 'arena' is served — rebuild the directory with "
            "`index --shards`"
        )
    shards = manifest.get("shards")
    if not isinstance(shards, list) or len(shards) != manifest.get("n_shards"):
        raise ValueError(
            f"corrupt manifest {path}: shard list does not match n_shards"
        )
    for index, entry in enumerate(shards):
        # The name is a function of the index, so anything else — a path
        # that climbs out of the directory included — is not ours.
        name = shard_file_name(index)
        if not isinstance(entry, dict) or entry.get("file") != name:
            raise ValueError(
                f"corrupt manifest {path}: shard {index} must name {name!r}"
            )
    return manifest

