"""One frozen options record for the whole query path.

Every layer that evaluates top-k join-correlation queries — the
monolithic :class:`~repro.index.engine.JoinCorrelationEngine`, the
sharded :class:`~repro.serving.router.ShardRouter`, the CLI's ``query`` and
``serve`` verbs, and the HTTP query service — historically spelled the
same ~10 tuning parameters by hand as positional/keyword arguments.
:class:`QueryOptions` is the single seam: one immutable, validated,
JSON-serializable dataclass that names every knob once, with the
layer-specific constructors (``from_options`` classmethods, the
:class:`~repro.serving.session.QuerySession` facade) consuming it.

The validation error messages are the authoritative ones — the engine
and router constructors delegate here, so an invalid ``rng_mode`` (for
example) produces the identical message at every entry point.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from repro.ranking.scoring import RNG_MODES, SCORER_NAMES

#: Candidate-retrieval strategies the engine can plug in (Section 4
#: lists the family): ``"inverted"`` — exact ScanCount over the inverted
#: index (the paper's experimental setup); ``"lsh"`` — approximate
#: banded MinHash-LSH (:mod:`repro.index.lsh`), O(bands) probe cost
#: independent of posting lengths, recall < 1 on low-overlap candidates.
#: Re-ranking is shared, so the backends differ only in which candidates
#: enter it.
RETRIEVAL_BACKENDS = ("inverted", "lsh")

#: Shard-failure policies the router's ``query``/``query_batch`` accept.
ON_SHARD_ERROR_POLICIES = ("raise", "partial")


def validate_resilience(on_shard_error: str) -> None:
    """Shared validation for the shard-failure policy.

    One function so the router's per-call validation and
    :class:`QueryOptions` construction cannot drift apart.
    """
    if on_shard_error not in ON_SHARD_ERROR_POLICIES:
        raise ValueError(
            f"unknown on_shard_error {on_shard_error!r}; expected one "
            f"of {ON_SHARD_ERROR_POLICIES}"
        )


@dataclass(frozen=True)
class QueryOptions:
    """Everything that parameterizes one top-k query, in one record.

    Attributes:
        k: result-list size.
        depth: candidates fetched by key overlap before re-ranking
            (the paper's experiments use 100).
        scorer: scoring function name (see
            :data:`repro.ranking.scoring.SCORER_NAMES`).
        min_overlap: minimum shared key hashes for a candidate to be
            considered joinable at all.
        rng_mode: how ``rb_cib`` runs the PM1 bootstrap across the
            candidate page (see :data:`repro.ranking.scoring.RNG_MODES`).
        retrieval_backend: candidate-retrieval strategy (see
            :data:`RETRIEVAL_BACKENDS`).
        lsh_bands / lsh_rows: LSH banding overrides (``"lsh"`` backend);
            ``None`` keeps a warm snapshot index's shape.
        seed: seed for the stochastic scorers and the bootstrap. ``None``
            (default) gives **every query its own** fixed-seed generator
            — the engine's per-query default, which makes results
            independent of how queries are batched (the property the
            request coalescer relies on). A set seed creates one
            generator per ``submit`` call, consumed in query order
            (exactly the documented ``query_batch`` contract).
        on_shard_error: ``"raise"`` (default) propagates the
            lowest-index shard failure; ``"partial"`` serves surviving
            shards and flags the result degraded (sharded backends
            only).
    """

    k: int = 10
    depth: int = 100
    scorer: str = "rp_cih"
    min_overlap: int = 1
    rng_mode: str = "batched"
    retrieval_backend: str = "inverted"
    lsh_bands: int | None = None
    lsh_rows: int | None = None
    seed: int | None = None
    on_shard_error: str = "raise"

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.depth <= 0:
            raise ValueError(
                f"retrieval_depth must be positive, got {self.depth}"
            )
        if self.scorer not in SCORER_NAMES:
            raise ValueError(
                f"unknown scorer {self.scorer!r}; expected one of "
                f"{SCORER_NAMES}"
            )
        if self.rng_mode not in RNG_MODES:
            raise ValueError(
                f"unknown rng_mode {self.rng_mode!r}; expected one of "
                f"{RNG_MODES}"
            )
        if self.retrieval_backend not in RETRIEVAL_BACKENDS:
            raise ValueError(
                f"unknown retrieval_backend {self.retrieval_backend!r}; "
                f"expected one of {RETRIEVAL_BACKENDS}"
            )
        for name, value in (
            ("lsh_bands", self.lsh_bands),
            ("lsh_rows", self.lsh_rows),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        validate_resilience(self.on_shard_error)

    def merged(self, **overrides) -> "QueryOptions":
        """A copy with the given fields replaced (and re-validated).

        ``None`` overrides are dropped for the fields where ``None`` is
        not a meaningful value (``k``/``scorer``/...), so callers can
        forward optional per-request overrides without case analysis.
        """
        overrides = {
            name: value
            for name, value in overrides.items()
            if value is not None
            or name in ("lsh_bands", "lsh_rows", "seed")
        }
        if not overrides:
            return self
        return replace(self, **overrides)

    def to_dict(self) -> dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryOptions":
        """Rebuild (and re-validate) options from :meth:`to_dict` output.

        Unknown keys are rejected — an options payload with a typo'd
        field must not silently fall back to a default.
        """
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown QueryOptions field(s): {sorted(unknown)}"
            )
        return cls(**payload)
