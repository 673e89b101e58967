"""Full-state digest of ingest: parsed columns, sketches, catalog CSRs.

Not a test file. Two uses:

* ``sketch_state(sketch)`` is the canonical reading of *everything* a
  :class:`~repro.core.sketch.CorrelationSketch` holds — identity,
  scalars, and the retained tuples in key-hash order: key hashes, unit
  ranks, every aggregator slot, the derived values. The ingest parity
  suites compare two sketches through it
  (``test_ingest_parity.assert_full_state_equal``), with the
  row-at-a-time build (``row_sketch_oracle.py``) as the oracle.
* ``PYTHONPATH=src python tests/sketch_state_digest.py DIR`` prints one
  SHA-256 over every ``DIR/*.csv``'s parsed columns, the state of every
  sketch ``add_table`` builds from them, and the catalog's frozen and
  delta CSR arrays along a scripted add / remove / compact sequence.
  Two checkouts that print the same line ingest bit-identically. The
  reading is layout-independent — a sketch that keeps a heap of
  aggregator objects (``_bottom``, the layout before the columns became
  the stored state) is read in the same canonical order — so the tool
  can be pointed at an older checkout's ``src`` unchanged.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

_SLOT_DTYPES = {
    "_count": np.int64,
    "_total": np.float64,
    "_seen": np.bool_,
    "_best": np.float64,
    "_value": np.float64,
}


def sketch_state(sketch) -> dict:
    """Everything ``sketch`` holds, in canonical (key-hash) order.

    Scalars come back as Python values, per-tuple state as arrays;
    ``slot:<name>`` entries are absent for a rehydrated sketch (which
    keeps values only).
    """
    columns = sketch.columnar()
    state = {
        "n": sketch.n,
        "aggregate": sketch.aggregate,
        "name": sketch.name,
        "scheme": tuple(sketch.hasher.scheme_id),
        "rows_seen": int(sketch.rows_seen),
        "overflowed": not sketch.saw_all_keys,
        "value_min": float(sketch.value_min),
        "value_max": float(sketch.value_max),
        "key_hashes": np.asarray(columns.key_hashes, dtype=np.uint64),
        "ranks": np.asarray(columns.ranks, dtype=np.float64),
        "values": np.asarray(columns.values, dtype=np.float64),
    }
    heap = getattr(sketch, "_bottom", None)
    if heap is not None:  # the object layout: one Aggregator per key
        aggs = [agg for _, _, agg in sorted(heap.items(), key=lambda e: e[1])]
        slot_names = type(aggs[0]).__slots__ if aggs else ()
        slots = {
            slot: np.array([getattr(a, slot) for a in aggs], dtype=_SLOT_DTYPES[slot])
            for slot in slot_names
        }
    else:
        slots = sketch._state.slots if sketch._state is not None else {}
    for slot, column in slots.items():
        state[f"slot:{slot}"] = column
    return state


def assert_states_equal(got: dict, expected: dict) -> None:
    """Field-by-field equality of two :func:`sketch_state` readings:
    same fields, same dtypes, same values (NaN equal to NaN)."""
    assert got.keys() == expected.keys(), (sorted(got), sorted(expected))
    for field, want in expected.items():
        have = got[field]
        if isinstance(want, np.ndarray):
            assert have.dtype == want.dtype, (field, have.dtype, want.dtype)
            np.testing.assert_array_equal(have, want, err_msg=field)
        elif isinstance(want, float):
            assert type(have) is float, (field, have)
            assert have == want or (have != have and want != want), (field, have, want)
        else:
            assert have == want, (field, have, want)


def _feed(digest, *parts) -> None:
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(str(part.dtype).encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
        digest.update(b"\x00")


def feed_sketch(digest, sketch) -> None:
    for field, value in sorted(sketch_state(sketch).items()):
        _feed(digest, field, value)


def feed_postings(digest, postings) -> None:
    _feed(
        digest,
        postings.vocab,
        postings.indptr,
        postings.doc_ids,
        list(postings.docs),
        postings.doc_lengths,
    )


def ingest_digest(directory: str | Path) -> str:
    """The digest described in the module docstring."""
    from repro.index.catalog import SketchCatalog
    from repro.table.csv_io import read_csv

    digest = hashlib.sha256()
    catalog = SketchCatalog(sketch_size=256)
    paths = sorted(Path(directory).glob("*.csv"))
    per_table = []
    for step, path in enumerate(paths):
        table = read_csv(path)
        _feed(digest, path.name, len(table))
        for name in table.column_names:
            column = table.column(name)
            numeric = column.type.name == "NUMERIC"
            _feed(digest, name, column.type.name)
            _feed(digest, column.values if numeric else list(column.values))
        ids = catalog.add_table(table)
        per_table.append(ids)
        for sid in ids:
            feed_sketch(digest, catalog.get(sid))
        # The scripted churn: promote after the first third, then every
        # table removes the table six back (delta erase or tombstone,
        # whichever layer it is in) and every eighth step compacts.
        if step == len(paths) // 3:
            feed_postings(digest, catalog.frozen_postings())
        if step >= 6:
            catalog.remove_sketches(per_table[step - 6])
        if step % 8 == 7 or step == len(paths) - 1:
            if catalog.delta_size:
                feed_postings(digest, catalog._delta_postings())
            catalog.compact()
            feed_postings(digest, catalog._frozen_postings)
    _feed(digest, catalog.index_version, sorted(catalog))
    return digest.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: sketch_state_digest.py DIR")
    print(ingest_digest(sys.argv[1]))
