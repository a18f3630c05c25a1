"""Descriptor publication scheduling.

Each service republishes at its own 24-hour period boundary (staggered by
the first byte of its permanent ID).  Experiments advance the clock hour by
hour and call :meth:`PublishScheduler.maintain` after each consensus
rebuild; it runs :meth:`PublishScheduler.publish_due` and re-uploads every
service whose responsible directories moved.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.crypto.descriptor_id import (
    DescriptorId,
    descriptor_ids_for_day_batch,
    time_period_boundaries,
)
from repro.crypto.keys import Fingerprint
from repro.crypto.ring import FingerprintRing
from repro.hs.service import HiddenService
from repro.hsdir.ring_view import responsible_replica_lists_for_ids
from repro.sim.clock import Timestamp

if TYPE_CHECKING:  # avoid a circular import: tornet imports repro.hs.service
    from repro.tornet import TorNetwork

#: One service's placement: its two descriptor IDs for the current period
#: and the responsible fingerprints of each replica.
Placement = Tuple[List[DescriptorId], List[List[Fingerprint]]]


class PublishScheduler:
    """Keeps every online service's descriptors fresh.

    Placement is batched: one shared secret-part table plus one vectorised
    ring bisect per call covers every service placed, instead of two SHA-1s
    and two Python bisects per service.  It is also incremental.  A
    service's two descriptor IDs are derived once per time period, and
    :meth:`maintain` re-places a service only when an input of its
    placement changed: its period rolled, the HSDir ring's membership
    changed, or it was never placed.  Uploads are batched as well: each
    call hands its services to one
    :meth:`~repro.tornet.TorNetwork.publish_services`, and
    :meth:`publish_due` pops due services off a heap instead of scanning
    them all.  Upload order, delivery targets, and every counter stay
    byte-identical to re-placing every online service on every call and
    uploading one descriptor at a time.
    """

    def __init__(self, network: "TorNetwork", services: Iterable[HiddenService]) -> None:
        self.network = network
        self.services: List[HiddenService] = list(services)
        self._next_publish: Dict[int, Timestamp] = {}
        # A heap of (next_publish, index), one entry per ``_next_publish``
        # entry, so publish_due reads only the services that are due.
        self._due: List[Tuple[Timestamp, int]] = []
        self._last_responsible: Dict[int, frozenset] = {}
        # index -> (period start, period end, the period's descriptor IDs)
        self._descriptor_ids: Dict[
            int, Tuple[Timestamp, Timestamp, List[DescriptorId]]
        ] = {}
        # index -> (ring generation, period start, period end) of the
        # placement that ``_last_responsible`` holds
        self._placed: Dict[int, Tuple[int, Timestamp, Timestamp]] = {}
        self._ring: Optional[FingerprintRing] = None
        self._ring_generation = 0

    def _placements(
        self, targets: List[Tuple[int, HiddenService]], now: Timestamp
    ) -> Dict[int, Placement]:
        """Batched per-replica placement for ``targets``, keyed by index."""
        if not targets:
            return {}
        when = int(now)
        ids_by_index = self._descriptor_ids
        rolled = []
        for index, service in targets:
            cached = ids_by_index.get(index)
            if cached is None or not cached[0] <= when < cached[1]:
                rolled.append((index, service))
        if rolled:
            fresh = descriptor_ids_for_day_batch(
                [service.onion for _, service in rolled], now
            )
            for (index, service), ids in zip(rolled, fresh):
                start, end = time_period_boundaries(now, service.permanent_id)
                ids_by_index[index] = (start, end, ids)
        id_lists = [ids_by_index[index][2] for index, _ in targets]
        per_replica = responsible_replica_lists_for_ids(
            self.network.consensus, id_lists
        )
        return {
            index: (ids, lists)
            for (index, _), ids, lists in zip(targets, id_lists, per_replica)
        }

    def _upload(
        self,
        targets: List[Tuple[int, HiddenService]],
        placements: Dict[int, Placement],
        now: Timestamp,
    ) -> int:
        """Upload ``targets`` in order through one network batch call."""
        return self.network.publish_services(
            [
                (service, placements[index][1], placements[index][0])
                for index, service in targets
            ],
            now,
        )

    def _schedule(self, index: int, service: HiddenService, now: Timestamp) -> None:
        due = service.next_publish_after(now)
        self._next_publish[index] = due
        heapq.heappush(self._due, (due, index))

    def publish_initial(self, now: Timestamp) -> int:
        """Publish every online service once and prime the schedule."""
        online = [
            (index, service)
            for index, service in enumerate(self.services)
            if service.is_online(now)
        ]
        delivered = self._upload(online, self._placements(online, now), now)
        self._next_publish = {
            index: service.next_publish_after(now)
            for index, service in enumerate(self.services)
        }
        self._due = [(due, index) for index, due in self._next_publish.items()]
        heapq.heapify(self._due)
        return delivered

    def publish_due(self, now: Timestamp) -> int:
        """Republish services whose period boundary has passed.

        Idempotent per period: a service whose boundary has not passed since
        the previous call is skipped.  A service never scheduled is only
        scheduled.  Due services come off a heap of ``(boundary, index)``
        and upload in index order; whether each is online is read now.
        """
        heap = self._due
        due = []
        while heap and heap[0][0] <= now:
            due.append(heapq.heappop(heap)[1])
        due.sort()
        services = self.services
        due_online = [
            (index, services[index]) for index in due if services[index].is_online(now)
        ]
        delivered = self._upload(due_online, self._placements(due_online, now), now)
        for index in due:
            self._schedule(index, services[index], now)
        if len(self._next_publish) < len(services):
            for index, service in enumerate(services):
                if index not in self._next_publish:
                    self._schedule(index, service, now)
        return delivered

    def maintain(self, now: Timestamp) -> int:
        """Keep descriptors where they belong: period boundaries *and*
        responsible-set changes trigger republication.

        Real Tor hidden services re-upload whenever a new consensus changes
        their responsible directories.  This is the behaviour that lets the
        shadow-relay attack harvest descriptors from relays that entered the
        consensus mid-period.  Call once per consensus (hourly).

        A responsible set depends only on the service's descriptor IDs and
        the HSDir ring's members, so only services whose period rolled, or
        every service when the members changed, are placed again.
        """
        delivered = self.publish_due(now)
        online = [
            (index, service)
            for index, service in enumerate(self.services)
            if service.is_online(now)
        ]
        if not online:
            return delivered
        ring = self.network.consensus.hsdir_ring
        if self._ring is None or not ring.same_members(self._ring):
            self._ring_generation += 1
        self._ring = ring
        generation = self._ring_generation
        when = int(now)
        stale = []
        for index, service in online:
            placed = self._placed.get(index)
            if (
                placed is None
                or placed[0] != generation
                or not placed[1] <= when < placed[2]
            ):
                stale.append((index, service))
        placements = self._placements(stale, now)
        moved = []
        for index, service in stale:
            start, end, _ = self._descriptor_ids[index]
            self._placed[index] = (generation, start, end)
            responsible = frozenset(chain.from_iterable(placements[index][1]))
            if self._last_responsible.get(index) != responsible:
                moved.append((index, service))
                self._last_responsible[index] = responsible
        return delivered + self._upload(moved, placements, now)
