"""Deterministic parallel execution (the only sanctioned concurrency layer).

See :mod:`repro.parallel.executor` for the contract; source check REP007
(in ``tests/test_source_checks.py``) keeps raw ``multiprocessing`` /
``concurrent.futures`` use out of the rest of the tree.
"""

from repro.parallel.executor import (
    PMAP_SHARD_POINT,
    QUARANTINED,
    SHARDS_PER_WORKER,
    WORKERS_ENV,
    ShardQuarantine,
    item_rng,
    pmap,
    resolve_workers,
    shard_bounds,
)

__all__ = [
    "PMAP_SHARD_POINT",
    "QUARANTINED",
    "SHARDS_PER_WORKER",
    "WORKERS_ENV",
    "ShardQuarantine",
    "item_rng",
    "pmap",
    "resolve_workers",
    "shard_bounds",
]
