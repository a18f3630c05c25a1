"""Content-addressed artifact store with stage checkpoint/resume.

Every pipeline stage is a pure function of (seed, configuration, fault
profile, code); the store makes that purity pay: a stage's output is
encoded by :mod:`repro.codec`, addressed by the SHA-256 of its
canonical JSON encoding, and keyed by a :class:`~repro.store.keys.CacheKey`
that folds in the run configuration, a per-stage code fingerprint, and the
pre-stage RNG cursor.  A warm re-run loads every artifact instead of
recomputing it — byte-identical at any worker count, clean or faulted —
and an append-only :class:`~repro.store.ledger.Ledger` records every
hit/miss so a run can prove it recomputed nothing.

Layering: the store is a substrate like ``parallel`` and ``obs`` — it
never imports measurement code.  A stage names its artifact class and
:meth:`~repro.store.checkpoint.Stage.of` derives the encoder/decoder
pair from :mod:`repro.codec`, keeping the dependency arrows pointing down.
"""

from repro.store.cas import (
    ContentStore,
    canonical_json_bytes,
    digest_of,
)
from repro.store.checkpoint import (
    LEDGER_APPEND_POINT,
    STORE_COMMIT_POINT,
    ArtifactStore,
    Stage,
    StateCursor,
)
from repro.store.keys import CacheKey, canonicalize, code_fingerprint
from repro.store.ledger import Ledger

__all__ = [
    "ArtifactStore",
    "CacheKey",
    "ContentStore",
    "LEDGER_APPEND_POINT",
    "Ledger",
    "STORE_COMMIT_POINT",
    "Stage",
    "StateCursor",
    "canonical_json_bytes",
    "canonicalize",
    "code_fingerprint",
    "digest_of",
]
