"""What the trawl collects.

Two streams come off the attacker's directories before each rotation burns
them: the stored descriptors (public keys → onion addresses) and the
per-descriptor-ID request counters (client popularity, Section V).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.descriptor_id import DescriptorId
from repro.crypto.onion import OnionAddress, onion_address_from_key
from repro.crypto.ring import HSDIRS_PER_REPLICA, ring_start_indices
from repro.hsdir.directory import HSDirServer
from repro.sim.clock import HOUR, Timestamp


@dataclass
class HarvestResult:
    """Accumulated trawl output."""

    onions: Set[OnionAddress] = field(default_factory=set)
    descriptor_ids_seen: Set[DescriptorId] = field(default_factory=set)
    # descriptor_id -> [found_count, not_found_count] summed over attacker
    # directories; "found" means the directory held the descriptor when the
    # client asked.
    request_counts: Dict[DescriptorId, List[int]] = field(default_factory=dict)
    descriptors_collected: int = 0
    relays_harvested: int = 0
    started_at: Timestamp = 0
    finished_at: Timestamp = 0

    def absorb_server(self, server: HSDirServer, now: Timestamp) -> None:
        """Read one attacker directory out before it is burned."""
        for stored in server.stored_descriptors(now):
            self.onions.add(onion_address_from_key(stored.public_der))
            self.descriptor_ids_seen.add(stored.descriptor_id)
            self.descriptors_collected += 1
        for desc_id, (found, missing) in server.request_counts.items():
            counts = self.request_counts.setdefault(desc_id, [0, 0])
            counts[0] += found
            counts[1] += missing
        self.relays_harvested += 1

    @property
    def total_requests(self) -> int:
        """All client fetches observed at attacker directories."""
        return sum(found + missing for found, missing in self.request_counts.values())

    @property
    def unique_requested_ids(self) -> int:
        """Distinct descriptor IDs clients asked for."""
        return len(self.request_counts)

    def requests_for(self, desc_id: DescriptorId) -> int:
        """Observed request count for one descriptor ID."""
        counts = self.request_counts.get(desc_id)
        return (counts[0] + counts[1]) if counts else 0


@dataclass
class RingHistory:
    """Hourly snapshots of the HSDir ring with attacker membership.

    The attacker can only observe requests for a descriptor ID while one of
    its relays is among the ID's responsible directories.  To report request
    *rates* (Table II counts are per 2-hour window), raw counts must be
    normalised by each ID's covered time — which the attacker can compute
    from public data: the consensus history plus its own relay list.
    """

    # (hour timestamp, sorted ring positions, attacker position set)
    snapshots: List[Tuple[Timestamp, Sequence[int], Set[int]]] = field(
        default_factory=list
    )

    def record(
        self,
        when: Timestamp,
        ring_positions: Sequence[int],
        attacker_positions: Set[int],
    ) -> None:
        """Store one hourly snapshot (ring positions must be sorted; the
        sequence is kept as given, so pass an immutable one such as
        ``FingerprintRing.positions``)."""
        self.snapshots.append((int(when), ring_positions, attacker_positions))

    def _attacker_slots(
        self,
        desc_id: DescriptorId,
        per_replica: int = HSDIRS_PER_REPLICA,
        validity: Optional[Tuple[Timestamp, Timestamp]] = None,
    ) -> List[int]:
        """Per snapshot: how many of the ID's responsible slots were ours.

        ``validity`` restricts the accounting to the ID's own time period —
        a descriptor ID only receives traffic while it is the service's
        *current* ID, so hours entirely outside ``[start, end)`` cannot have
        observed anything and must not dilute the denominator.  A snapshot
        taken at ``when`` stands for the consensus hour ``(when - 1h, when]``
        (requests issued during that hour route through it), so the filter
        keeps any snapshot whose *hour* overlaps the validity window — a
        rotation boundary falling mid-hour keeps both neighbouring IDs'
        accounting consistent with where their raw counts landed.
        """
        point = int.from_bytes(desc_id, "big")
        slots: List[int] = []
        for when, positions, attacker in self.snapshots:
            if validity is not None and not (
                when - HOUR < validity[1] and when > validity[0]
            ):
                continue
            if not positions:
                slots.append(0)
                continue
            start = bisect.bisect_right(positions, point)
            take = min(per_replica, len(positions))
            count = sum(
                1
                for i in range(take)
                if positions[(start + i) % len(positions)] in attacker
            )
            slots.append(count)
        return slots

    def slot_weighted_seconds(
        self,
        desc_id: DescriptorId,
        per_replica: int = HSDIRS_PER_REPLICA,
        validity: Optional[Tuple[Timestamp, Timestamp]] = None,
    ) -> float:
        """Coverage weighted by the *fraction of slots* held (a/3 per hour).

        A client whose fetch succeeds queries exactly one of the ID's
        directories at random, so the attacker observes a found-fetch with
        probability a/3 when it holds a of the 3 slots; a failed fetch walks
        all three, so any held slot observes it.  The two observation models
        share this denominator (see :meth:`normalized_rate`).
        """
        take = per_replica
        return sum(
            HOUR * slots / take
            for slots in self._attacker_slots(desc_id, per_replica, validity)
        )

    def normalized_rate(
        self,
        desc_id: DescriptorId,
        found: int,
        missing: int,
        window: int = 2 * HOUR,
        validity: Optional[Tuple[Timestamp, Timestamp]] = None,
    ) -> float:
        """Scale raw observed counts to a per-``window`` request count *as a
        full-takeover attacker would have logged it* — the paper's vantage,
        where the measuring relays held essentially every responsible slot.

        A successful fetch queries one directory uniformly at random (the
        attacker sees it w.p. a/3 holding a slots); a failed fetch walks all
        three (each held slot logs it, i.e. a log lines).  Both observation
        processes scale linearly with held slots, so one slot-weighted
        denominator recovers the full-coverage count for each: per 2-hour
        window, a found-count normalises to the service's fetch rate (what
        Table II prints) and a missing-count to 3× the phantom fetch rate
        (clients hammering every directory, as the paper's logs show).

        ``validity`` restricts coverage to the ID's own period, so an ID
        whose service rotated mid-sweep is not diluted by hours it could not
        have been asked for.  When every observed request arrived *outside*
        the validity window (clock-skewed clients asking for yesterday's or
        tomorrow's ID), the denominator falls back to full-sweep coverage —
        observability is a property of when requests arrive, and such
        requests arrive throughout the sweep.
        """
        weighted = self.slot_weighted_seconds(desc_id, validity=validity)
        if weighted <= 0 and validity is not None:
            weighted = self.slot_weighted_seconds(desc_id)
        if weighted <= 0:
            weighted = HOUR
        return (found + missing) * window / weighted

    def _attacker_slot_matrix(
        self, points: Sequence[int], per_replica: int
    ) -> List[Optional[List[int]]]:
        """Per snapshot, the attacker slot count of every query point.

        The batched half of the observation pass: one ring bisect per
        point (:func:`ring_start_indices`) plus a wrapped prefix sum over
        the snapshot's attacker-membership flags answers all points at
        once.  Row ``None`` stands for an empty-ring snapshot (slot 0 for
        every ID, as the scalar loop records).  Entry ``[s][i]`` always
        equals the scalar ``_attacker_slots`` count of point *i* at
        snapshot *s*.
        """
        matrix: List[Optional[List[int]]] = []
        for _, positions, attacker in self.snapshots:
            if not positions:
                matrix.append(None)
                continue
            take = min(per_replica, len(positions))
            flags = [1 if p in attacker else 0 for p in positions]
            # ``flags`` extended past the wrap point: index ``start + i``
            # reads the same member the scalar ``(start + i) % size`` does,
            # for any bisect_right result in [0, size].
            prefix = list(accumulate(flags + flags[:take], initial=0))
            matrix.append(
                [
                    prefix[start + take] - prefix[start]
                    for start in ring_start_indices(points, positions)
                ]
            )
        return matrix

    def normalized_rates_batch(
        self,
        requests: Sequence[
            Tuple[DescriptorId, int, int, Optional[Tuple[Timestamp, Timestamp]]]
        ],
        window: int = 2 * HOUR,
        per_replica: int = HSDIRS_PER_REPLICA,
    ) -> List[float]:
        """Batched :meth:`normalized_rate` over ``(id, found, missing,
        validity)`` requests.

        The slot matrix is computed once for all IDs; each ID's weighted
        coverage is then accumulated snapshot by snapshot with exactly the
        scalar expression and term order (validity filter, empty-ring
        zeros, full-sweep fallback, ``HOUR`` floor included), so element
        *i* is bit-identical to ``normalized_rate(*requests[i], window)``.
        """
        points = [int.from_bytes(desc_id, "big") for desc_id, _, _, _ in requests]
        matrix = self._attacker_slot_matrix(points, per_replica)
        take = per_replica
        whens = [when for when, _, _ in self.snapshots]
        rates: List[float] = []
        for column, (_, found, missing, validity) in enumerate(requests):
            weighted: float = 0
            for when, row in zip(whens, matrix):
                if validity is not None and not (
                    when - HOUR < validity[1] and when > validity[0]
                ):
                    continue
                weighted = weighted + HOUR * (0 if row is None else row[column]) / take
            if weighted <= 0 and validity is not None:
                for row in matrix:
                    weighted = (
                        weighted + HOUR * (0 if row is None else row[column]) / take
                    )
            if weighted <= 0:
                weighted = HOUR
            rates.append((found + missing) * window / weighted)
        return rates
