"""Deterministic shard-map execution.

``pmap(fn, items)`` is the one sanctioned way to fan work out across
processes.  Work is partitioned into *stable shards* — contiguous,
balanced slices whose boundaries depend only on the item count and shard
count — and every item owns an RNG stream derived from the experiment
seed, the caller's path, and the item's **global index**.  Because neither
the stream derivation nor the merge order ever depends on the worker
count, scheduling, or completion order, the output is byte-identical at
``workers=1`` and ``workers=64``.

Three execution modes, chosen automatically:

- ``workers=1`` (the default, also the ``REPRO_WORKERS`` fallback): plain
  in-process loop, zero overhead.
- ``workers>1`` with a picklable ``fn``: shards run on a
  :class:`concurrent.futures.ProcessPoolExecutor`; results are merged in
  shard order, not completion order.
- ``workers>1`` with an *unpicklable* ``fn`` (a closure over live
  simulator state, say): the shards run serially in-process, in shard
  order.  This degrades throughput, never correctness — which is exactly
  the contract callers rely on: stages that must observe shared mutable
  state (e.g. a transport with one circuit-noise stream) deliberately
  pass closures so they stay in-process and keep their draw order.

This module is the only place allowed to touch ``concurrent.futures`` /
``multiprocessing`` directly; source check REP007 (in
``tests/test_source_checks.py``) rejects raw use anywhere else.

Two robustness hooks ride on the shard structure (both used by
``repro.supervise``, neither imported from it):

- **Poison-shard quarantine.**  With a :class:`ShardQuarantine`, a shard
  whose items raise is retried, then re-run item-by-item in the parent;
  only the individually-failing items are quarantined (replaced by the
  :data:`QUARANTINED` sentinel and reported), so the quarantined set is a
  function of the *items*, never of shard boundaries or worker count.
- **Crash points.**  An optional ``crash_point`` callable is hit once per
  shard, in shard order, in the parent process — the supervision plane's
  deterministic process-death injector threads through here.
"""

from __future__ import annotations

import os
import pickle
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import ParallelError
from repro.obs.scope import Observer
from repro.sim.rng import derive_rng

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"

#: Shards per worker: small enough to amortise submission overhead, large
#: enough that one slow shard cannot idle the rest of the pool.
SHARDS_PER_WORKER = 4

#: Set in pool workers (via initializer) so nested ``pmap`` calls inside a
#: worker degrade to in-process execution instead of forking grandchildren.
_IN_WORKER = False

#: The crash-point label ``pmap`` hits once per shard (parent process,
#: shard order).  Spelled here — not imported from ``repro.supervise`` —
#: so the dependency points strictly upward.
PMAP_SHARD_POINT = "pmap:shard"


class _QuarantinedSentinel:
    """The placeholder a quarantined item leaves in the result list."""

    def __repr__(self) -> str:
        return "QUARANTINED"


#: Singleton marking a quarantined item's slot; compare with ``is``.
#: Quarantine isolation always runs in the parent process, so identity
#: checks never cross a pickle boundary.
QUARANTINED: Any = _QuarantinedSentinel()


class ShardQuarantine:
    """Isolation record for items that fail repeatedly under ``pmap``.

    A failing shard is retried up to ``max_attempts`` times (the whole
    shard — cheap, and rescues genuinely transient faults), then re-run
    item-by-item in the parent: items that still raise are *quarantined* —
    their slot in the result list becomes :data:`QUARANTINED` and a report
    (seed-path, global index, error) is recorded here — instead of
    aborting the run.  Because isolation is per item, the quarantined set
    is identical at every worker count.

    One instance may span several ``pmap`` calls and several supervised
    restarts; reports are deduplicated on (seed-path, index) so a
    restarted stage does not double-report its poison.
    """

    def __init__(self, max_attempts: int = 2) -> None:
        if max_attempts < 1:
            raise ParallelError(
                f"quarantine max_attempts must be >= 1, got {max_attempts}"
            )
        self.max_attempts = max_attempts
        self._seen: set = set()
        self._reports: List[Dict[str, Any]] = []

    def __len__(self) -> int:
        return len(self._reports)

    def record(
        self, seed_path: Sequence[str], index: int, error: Exception
    ) -> bool:
        """Record one quarantined item; False if already recorded."""
        path = "/".join(seed_path)
        key = (path, index)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._reports.append(
            {
                "path": path,
                "index": index,
                "error": f"{type(error).__name__}: {error}",
            }
        )
        return True

    def reports(self) -> List[Dict[str, Any]]:
        """Quarantined-item reports, in quarantine order."""
        return list(self._reports)

    def indices(self, seed_path: Sequence[str] = ()) -> List[int]:
        """Global indices quarantined under ``seed_path``."""
        path = "/".join(str(element) for element in seed_path)
        return [
            report["index"]
            for report in self._reports
            if report["path"] == path
        ]


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit argument, else ``$REPRO_WORKERS``, else 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ParallelError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from exc
    if workers < 1:
        raise ParallelError(f"worker count must be >= 1, got {workers}")
    return workers


def shard_bounds(item_count: int, shard_count: int) -> List[Tuple[int, int]]:
    """Balanced, contiguous ``[start, stop)`` bounds partitioning the items.

    Every index in ``range(item_count)`` lands in exactly one shard; shard
    sizes differ by at most one.  The partition is a pure function of
    ``(item_count, shard_count)`` — nothing about workers or timing.
    """
    if item_count < 0:
        raise ParallelError(f"item count must be >= 0, got {item_count}")
    if shard_count < 1:
        raise ParallelError(f"shard count must be >= 1, got {shard_count}")
    if item_count == 0:
        return []
    shard_count = min(shard_count, item_count)
    per_shard = item_count // shard_count
    extra = item_count % shard_count
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(shard_count):
        size = per_shard + (1 if index < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def item_rng(seed: int, seed_path: Sequence[str], index: int) -> random.Random:
    """The RNG stream owned by item ``index`` under ``(seed, seed_path)``.

    A function of the seed, the path, and the item's global index only —
    re-sharding, worker count, and completion order cannot perturb it.
    """
    return derive_rng(seed, *seed_path, "item", str(index))


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def _run_shard(
    fn: Callable,
    shard_items: List[T],
    start: int,
    seed: Optional[int],
    seed_path: Tuple[str, ...],
    observed: bool = False,
) -> "List[R] | Tuple[List[R], Observer]":
    """Run one shard; module-level so the process pool can pickle it.

    With ``observed=True`` a fresh shard :class:`Observer` is created here
    (inside the pool worker, when pooled) and passed to ``fn`` as its last
    argument; the shard's results and observer travel back together so the
    caller can absorb observers in shard order.
    """
    if not observed:
        if seed is None:
            return [fn(item) for item in shard_items]
        return [
            fn(item, item_rng(seed, seed_path, start + offset))
            for offset, item in enumerate(shard_items)
        ]
    shard_observer = Observer(name=f"shard@{start}")
    if seed is None:
        results = [fn(item, shard_observer) for item in shard_items]
    else:
        results = [
            fn(item, item_rng(seed, seed_path, start + offset), shard_observer)
            for offset, item in enumerate(shard_items)
        ]
    return results, shard_observer


def _is_picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
    except (pickle.PicklingError, TypeError, AttributeError):
        return False
    return True


def _run_shard_quarantined(
    fn: Callable,
    shard_items: List[T],
    start: int,
    seed: Optional[int],
    seed_path: Tuple[str, ...],
    observed: bool,
    quarantine: ShardQuarantine,
) -> "List[R] | Tuple[List[R], Observer]":
    """Run one shard under quarantine, in the parent process.

    Whole-shard attempts first (a transient fault heals here); if the
    shard keeps failing, fall back to per-item isolation so only the
    genuinely poisonous items are quarantined.  Metrics from failed
    whole-shard attempts are discarded with their observer, so the merged
    snapshot stays worker-count-invariant: every surviving item records
    exactly once.
    """
    for _ in range(quarantine.max_attempts):
        try:
            return _run_shard(
                fn, shard_items, start, seed, seed_path, observed=observed
            )
        except Exception:
            continue
    shard_observer = Observer(name=f"shard@{start}") if observed else None
    results: List[R] = []
    for offset, item in enumerate(shard_items):
        index = start + offset
        args: List[Any] = [item]
        if seed is not None:
            args.append(item_rng(seed, seed_path, index))
        if shard_observer is not None:
            args.append(shard_observer)
        try:
            results.append(fn(*args))
        except Exception as exc:
            quarantine.record(seed_path, index, exc)
            if shard_observer is not None:
                shard_observer.count("pmap_items_quarantined_total")
            results.append(QUARANTINED)
    if shard_observer is not None:
        return results, shard_observer
    return results


def _merge_shard_result(
    shard_result: "List[R] | Tuple[List[R], Observer]",
    merged: List[R],
    observer: Optional[Observer],
) -> None:
    if observer is None:
        merged.extend(shard_result)
    else:
        results, shard_observer = shard_result
        merged.extend(results)
        observer.absorb(shard_observer)


def _run_serial(
    fn: Callable,
    item_list: List[T],
    bounds: List[Tuple[int, int]],
    seed: Optional[int],
    seed_path: Tuple[str, ...],
    observer: Optional[Observer] = None,
    quarantine: Optional[ShardQuarantine] = None,
    crash_point: Optional[Callable[[str], None]] = None,
) -> List[R]:
    merged: List[R] = []
    for start, stop in bounds:
        if crash_point is not None:
            crash_point(PMAP_SHARD_POINT)
        if quarantine is not None:
            shard_result = _run_shard_quarantined(
                fn,
                item_list[start:stop],
                start,
                seed,
                seed_path,
                observer is not None,
                quarantine,
            )
        else:
            shard_result = _run_shard(
                fn,
                item_list[start:stop],
                start,
                seed,
                seed_path,
                observed=observer is not None,
            )
        _merge_shard_result(shard_result, merged, observer)
    return merged


def pmap(
    fn: Callable,
    items: Sequence[T],
    *,
    seed: Optional[int] = None,
    seed_path: Sequence[str] = (),
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    observer: Optional[Observer] = None,
    quarantine: Optional[ShardQuarantine] = None,
    crash_point: Optional[Callable[[str], None]] = None,
) -> List[R]:
    """Map ``fn`` over ``items`` deterministically, optionally in parallel.

    Without ``seed``, calls ``fn(item)``; with a ``seed``, calls
    ``fn(item, rng)`` where ``rng`` is :func:`item_rng` for the item's
    global index — so every item's stream is independent of how the work
    is sharded or scheduled.  Results always come back in item order.

    With an enabled ``observer``, ``fn`` additionally receives a per-shard
    :class:`~repro.obs.scope.Observer` as its last argument; shard
    observers are absorbed back into ``observer`` in shard order, so as
    long as ``fn`` records only additive metrics (counters, histograms)
    and events, the merged snapshot is byte-identical at any worker count.

    With a ``quarantine``, an item whose shard keeps failing is isolated
    per :class:`ShardQuarantine` — its result slot becomes
    :data:`QUARANTINED` instead of the exception aborting the run.  A
    ``crash_point`` callable is hit once per shard in shard order (parent
    process); whatever it raises propagates untouched.

    A broken process pool (a worker died) never propagates: the affected
    shard re-runs serially in the parent — per-item work is independent
    by contract, so the rerun is equivalent — counted once per ``pmap``
    call as ``pmap_pool_broken_total``.

    ``fn`` must be independent across items (no item may read another's
    output).  A ``fn`` that needs shared mutable in-process state should
    be a closure: closures do not pickle, which routes them through the
    in-process serial path regardless of ``workers``.
    """
    item_list = list(items)
    worker_count = resolve_workers(workers)
    if not item_list:
        return []
    path = tuple(str(element) for element in seed_path)
    shard_count = shards if shards is not None else worker_count * SHARDS_PER_WORKER
    bounds = shard_bounds(len(item_list), shard_count)
    if observer is not None and not observer.enabled:
        observer = None
    if worker_count == 1 or _IN_WORKER or len(bounds) == 1 or not _is_picklable(fn):
        return _run_serial(
            fn, item_list, bounds, seed, path, observer, quarantine, crash_point
        )

    def rescue_shard(start: int, stop: int):
        """Re-run one shard in the parent (pool broke or results won't pickle)."""
        if quarantine is not None:
            return _run_shard_quarantined(
                fn,
                item_list[start:stop],
                start,
                seed,
                path,
                observer is not None,
                quarantine,
            )
        return _run_shard(
            fn,
            item_list[start:stop],
            start,
            seed,
            path,
            observed=observer is not None,
        )

    # Imported here, not at module level: a serial run never loads the
    # process-pool machinery.
    from concurrent import futures

    with futures.ProcessPoolExecutor(
        max_workers=min(worker_count, len(bounds)), initializer=_mark_worker
    ) as pool:
        try:
            pending = [
                pool.submit(
                    _run_shard,
                    fn,
                    item_list[start:stop],
                    start,
                    seed,
                    path,
                    observer is not None,
                )
                for start, stop in bounds
            ]
        except futures.BrokenExecutor:
            # The pool died before any work was merged (no crash point has
            # fired yet, so the serial path replays them all, once).
            if observer is not None:
                observer.count("pmap_pool_broken_total")
            return _run_serial(
                fn, item_list, bounds, seed, path, observer, quarantine, crash_point
            )
        merged: List[R] = []
        pool_broken = False
        # Merge in shard-submission order; completion order is irrelevant.
        # The crash point fires here — parent process, shard order — so
        # injected deaths are worker-count-invariant.
        for (start, stop), future in zip(bounds, pending):
            if crash_point is not None:
                crash_point(PMAP_SHARD_POINT)
            try:
                shard_result = future.result()
            except futures.BrokenExecutor:
                # A worker died (os._exit, OOM kill).  Rescue just this
                # shard in the parent; later shards rescue themselves the
                # same way while the pool stays broken.
                if not pool_broken and observer is not None:
                    observer.count("pmap_pool_broken_total")
                pool_broken = True
                shard_result = rescue_shard(start, stop)
            except (pickle.PicklingError, TypeError, AttributeError):
                # Unpicklable items/results — or ``fn`` genuinely raising
                # one of these types, which the parent rerun re-raises (or
                # quarantines) exactly as the serial path would.
                shard_result = rescue_shard(start, stop)
            except Exception:
                if quarantine is None:
                    raise
                shard_result = rescue_shard(start, stop)
            _merge_shard_result(shard_result, merged, observer)
        return merged
