"""Indexing and query evaluation for join-correlation search.

The inverted index (:mod:`repro.index.inverted`) provides set-overlap
candidate retrieval over sketch key hashes; the catalog
(:mod:`repro.index.catalog`) stores sketches per column pair; the engine
(:mod:`repro.index.engine`) composes them into the two-phase top-k
query plan of Section 5.5 (retrieve top-100 by overlap, re-rank by
estimated correlation under a risk-averse scoring function).
"""

from repro.index.arena import (
    ArenaReader,
    atomic_write,
    atomic_write_text,
    backing_storage,
    write_arena,
)
from repro.index.catalog import SketchCatalog
from repro.index.engine import (
    RETRIEVAL_BACKENDS,
    CandidatePage,
    JoinCorrelationEngine,
    QueryResult,
    rerank_pages,
    retrieve_candidates,
    retrieve_candidates_batch,
)
from repro.index.inverted import ColumnarPostings
from repro.index.options import QueryOptions
from repro.index.lsh import LshIndex, MinHashSignature
from repro.index.snapshot import (
    ARENA_VERSION,
    detect_format,
    load_snapshot,
    save_snapshot,
)

__all__ = [
    "ARENA_VERSION",
    "ArenaReader",
    "CandidatePage",
    "ColumnarPostings",
    "JoinCorrelationEngine",
    "LshIndex",
    "MinHashSignature",
    "QueryOptions",
    "QueryResult",
    "RETRIEVAL_BACKENDS",
    "SketchCatalog",
    "atomic_write",
    "atomic_write_text",
    "backing_storage",
    "detect_format",
    "load_snapshot",
    "rerank_pages",
    "retrieve_candidates",
    "retrieve_candidates_batch",
    "save_snapshot",
    "write_arena",
]
