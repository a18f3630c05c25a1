"""Descriptor-ID → onion-address resolution.

The request counts harvested at the attacker's directories are keyed by
descriptor ID, not onion address.  Because the derivation is deterministic,
the attacker can invert it *for onions it knows*: "For each address in the
list we computed corresponding descriptor IDs for each day between 28
January 2013 and 8 February in order to deal with possible wrong time
settings of Tor clients" (Section V).

IDs that resolve to nothing belong to onions outside the harvested
database — in the paper's data a striking 80% of requests asked for
descriptors that never existed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.crypto.descriptor_id import (
    DescriptorId,
    descriptor_index_entries_batch,
)
from repro.crypto.onion import OnionAddress
from repro.obs.scope import Observer, ensure_observer
from repro.parallel.executor import (
    SHARDS_PER_WORKER,
    pmap,
    resolve_workers,
    shard_bounds,
)
from repro.sim.clock import DAY, Timestamp


@dataclass
class ResolutionResult:
    """Outcome of resolving a harvested request-count table."""

    requests_per_onion: Dict[OnionAddress, int] = field(default_factory=dict)
    resolved_ids: int = 0
    unresolved_ids: int = 0
    resolved_requests: int = 0
    unresolved_requests: int = 0
    id_to_onion: Dict[DescriptorId, OnionAddress] = field(default_factory=dict)

    @property
    def total_unique_ids(self) -> int:
        """Distinct descriptor IDs in the harvest."""
        return self.resolved_ids + self.unresolved_ids

    @property
    def resolved_onion_count(self) -> int:
        """Distinct onion addresses the IDs resolved to."""
        return len(self.requests_per_onion)

    @property
    def phantom_request_fraction(self) -> float:
        """Share of request volume that resolved to nothing."""
        total = self.resolved_requests + self.unresolved_requests
        return self.unresolved_requests / total if total else 0.0


def _requested_entries(
    chunk: List[OnionAddress],
    requested: FrozenSet[DescriptorId],
    start: Timestamp,
    end: Timestamp,
) -> List[List[Tuple[DescriptorId, Timestamp]]]:
    """Each onion's window entries, keeping only the requested IDs."""
    return [
        [entry for entry in entries if entry[0] in requested]
        for entries in descriptor_index_entries_batch(chunk, start, end)
    ]


class DescriptorResolver:
    """Inverts requested descriptor IDs over a harvested onion database."""

    def __init__(
        self,
        onion_database: Iterable[OnionAddress],
        window_start: Timestamp,
        window_end: Timestamp,
        requested: Iterable[DescriptorId],
        workers: Optional[int] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        """Index the requested descriptor IDs the database uses in the window.

        Every onion's IDs are derived for every day in
        ``[window_start, window_end]`` × both replicas — exactly the paper's
        multi-day derivation — but only the IDs in ``requested`` (a
        harvest's request-count keys) are indexed: each maps to the onion
        that claimed it first, together with its *validity period* (when
        that onion used it), which rate normalisation needs.  An ID outside
        ``requested`` never resolves, so the index grows with what a harvest
        saw, not with the database.

        The per-onion SHA-1 derivations are independent, so chunks of the
        database fan out through one :func:`repro.parallel.pmap` call
        (``workers`` defaults to ``$REPRO_WORKERS``, then 1), each chunk
        amortising the batched kernel's shared secret-part table and
        returning only requested entries.  The merge walks onions in
        database order, so the index is identical at every worker count.

        Two *different* onions deriving the same descriptor ID is a SHA-1
        collision the paper's attacker would also have suffered; instead
        of silently overwriting (and so dropping an onion from the index),
        the first claimant keeps the ID and every later claimant is
        recorded in :attr:`collisions`.
        """
        self.window = (window_start, window_end)
        self._observer = ensure_observer(observer)
        self._index: Dict[DescriptorId, OnionAddress] = {}
        self._validity: Dict[DescriptorId, Tuple[Timestamp, Timestamp]] = {}
        #: requested descriptor ID → every onion that derived it, in
        #: database order (first entry owns the index slot).
        self.collisions: Dict[DescriptorId, List[OnionAddress]] = {}
        onions = list(onion_database)
        self.database_size = len(onions)
        chunks = [
            onions[lo:hi]
            for lo, hi in shard_bounds(
                len(onions), resolve_workers(workers) * SHARDS_PER_WORKER
            )
        ]
        derive = functools.partial(
            _requested_entries,
            requested=frozenset(requested),
            start=window_start,
            end=window_end,
        )
        derived = pmap(derive, chunks, workers=workers)
        for chunk, chunk_entries in zip(chunks, derived):
            for onion, entries in zip(chunk, chunk_entries):
                for desc, period_start in entries:
                    owner = self._index.get(desc)
                    if owner is None:
                        self._index[desc] = onion
                        self._validity[desc] = (period_start, period_start + DAY)
                    elif owner != onion:
                        self.collisions.setdefault(desc, [owner]).append(onion)
        self._observer.gauge("resolver_database_size", self.database_size)
        self._observer.gauge("resolver_index_size", len(self._index))
        self._observer.gauge("resolver_collisions", self.collision_count)

    @property
    def index_size(self) -> int:
        """Number of requested descriptor IDs that resolved."""
        return len(self._index)

    @property
    def collision_count(self) -> int:
        """(descriptor ID, onion) claims lost to an earlier claimant."""
        return sum(len(claimants) - 1 for claimants in self.collisions.values())

    def lookup(self, desc_id: DescriptorId) -> OnionAddress | None:
        """Resolve one descriptor ID, or None."""
        return self._index.get(desc_id)

    def validity_of(
        self, desc_id: DescriptorId
    ) -> Optional[Tuple[Timestamp, Timestamp]]:
        """[start, end) during which a resolvable ID was in service.

        The first claimant's first entry carrying the ID sets it, as that
        claim sets the index slot.
        """
        return self._validity.get(desc_id)

    def resolve(
        self, request_counts: Dict[DescriptorId, List[int]]
    ) -> ResolutionResult:
        """Resolve a harvest's ``descriptor_id -> [found, missing]`` table."""
        result = ResolutionResult()
        for desc_id, (found, missing) in request_counts.items():
            count = found + missing
            onion = self._index.get(desc_id)
            if onion is None:
                result.unresolved_ids += 1
                result.unresolved_requests += count
                continue
            result.resolved_ids += 1
            result.resolved_requests += count
            result.id_to_onion[desc_id] = onion
            result.requests_per_onion[onion] = (
                result.requests_per_onion.get(onion, 0) + count
            )
        return result

    def resolve_normalized(
        self,
        request_counts: Dict[DescriptorId, List[int]],
        normalizer,
    ) -> ResolutionResult:
        """Like :meth:`resolve` but scales each ID's raw count to a rate.

        ``normalizer(desc_id, found, missing, validity) -> float`` converts
        observed counts into a per-window rate (see
        :meth:`repro.trawl.harvest.RingHistory.normalized_rate`); resolved
        IDs carry their validity period so the normaliser can restrict
        coverage accounting to it.  Per-onion totals are rounded at the end.
        """
        result = ResolutionResult()
        per_onion: Dict[OnionAddress, float] = {}
        for desc_id, (found, missing) in request_counts.items():
            raw = found + missing
            onion = self._index.get(desc_id)
            if onion is None:
                result.unresolved_ids += 1
                result.unresolved_requests += raw
                continue
            rate = normalizer(desc_id, found, missing, self.validity_of(desc_id))
            result.resolved_ids += 1
            result.resolved_requests += raw
            result.id_to_onion[desc_id] = onion
            per_onion[onion] = per_onion.get(onion, 0.0) + rate
        result.requests_per_onion = {
            onion: round(rate) for onion, rate in per_onion.items()
        }
        return result
