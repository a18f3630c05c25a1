"""Descriptor storage and request accounting at one HSDir.

An :class:`HSDirServer` is the directory-side state of one relay: a cache of
descriptors keyed by descriptor ID with 24-hour retention ("HS directories
responsible for the previous time period erase its descriptor from the
memory"), plus per-ID fetch counters and an optional per-hour fetch tally.
The paper's harvest reads the stores and the counters: stored descriptors
yield onion addresses, and the counters yield popularity — including the
~80% of fetches that ask for descriptors that were never published.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.crypto.descriptor_id import DescriptorId
from repro.errors import DescriptorError, ReproError
from repro.sim.clock import DAY, HOUR, Timestamp


@dataclass(frozen=True, slots=True)
class StoredDescriptor:
    """A descriptor as held by a directory.

    ``public_der`` is the service's public key material — the harvest
    derives onion addresses from it ("collecting hidden services' public
    keys (from which onion addresses are easily derived)").
    """

    descriptor_id: DescriptorId
    public_der: bytes
    replica: int
    published_at: Timestamp


class HSDirServer:
    """Directory-side state of a single relay.

    Request accounting has two granularities: per-descriptor-ID aggregate
    counters (always on — cheap, and all Section V's ranking needs) and,
    with ``keep_log``, a tally of fetches per (descriptor ID, hour) for
    analyses that need request timing, such as hourly rate series.  The
    tally grows with the distinct IDs fetched each hour, not with the
    fetches.  The directories a :class:`~repro.tornet.TorNetwork`
    provisions keep none; Table II turns it on for its attacker fleet
    only, whose tallies its traffic-shape forensic reads.  Reading the
    tally of a directory that keeps none raises
    :class:`~repro.errors.ReproError` rather than reporting zero traffic.
    """

    RETENTION = DAY

    # How often the expiry sweep actually walks the store.  Retention is
    # 24 h; sub-hour precision buys nothing, and sweeping on every store
    # and fetch is O(stored descriptors) — at harvest scale (millions of
    # operations against thousands of cached descriptors) that sweep, not
    # the protocol work, dominates runtime.  The granularity is also part
    # of the pinned behaviour: sweep timing decides whether a re-stored
    # descriptor re-enters the dict at the end or stays in place, and that
    # insertion order is visible through ``stored_descriptors``.
    EXPIRY_GRANULARITY = HOUR

    #: Watermark of an empty store: newer than any cutoff.
    _NOTHING_STORED = 1 << 62

    def __init__(self, relay_id: int, keep_log: bool = True) -> None:
        self.relay_id = relay_id
        self.keep_log = keep_log
        self._store: Dict[DescriptorId, StoredDescriptor] = {}
        # hour start -> descriptor_id -> fetches in that hour (keep_log only)
        self._hourly: Dict[Timestamp, Dict[DescriptorId, int]] = {}
        # descriptor_id -> [found_count, not_found_count]
        self.request_counts: Dict[DescriptorId, List[int]] = {}
        self.publishes_received = 0
        self._last_expiry_sweep: Timestamp = -(1 << 62)
        # A lower bound on every stored ``published_at``: while it is newer
        # than the cutoff, a sweep has nothing to delete and skips its walk.
        self._oldest_published: Timestamp = self._NOTHING_STORED

    def store(self, descriptor: StoredDescriptor, now: Timestamp) -> None:
        """Accept an uploaded descriptor, replacing any previous version.

        The one-item case of :meth:`store_many`.
        """
        self.store_many((descriptor,), now)

    def store_many(
        self, descriptors: Sequence[StoredDescriptor], now: Timestamp
    ) -> None:
        """Accept the uploads that land here at ``now``, in order.

        The store ends as if each descriptor had been stored in turn: every
        upload at one ``now`` shares one expiry check, later versions
        replace earlier ones in place, and each upload counts once in
        ``publishes_received``.  Every descriptor is checked before any
        lands, so a rejected batch stores nothing.
        """
        if not descriptors:
            return
        for descriptor in descriptors:
            if len(descriptor.descriptor_id) != 20:
                raise DescriptorError(
                    "descriptor id must be 20 bytes, "
                    f"got {len(descriptor.descriptor_id)}"
                )
        if int(now) - self._last_expiry_sweep >= self.EXPIRY_GRANULARITY:
            self._expire(now)
        store = self._store
        oldest = self._oldest_published
        for descriptor in descriptors:
            store[descriptor.descriptor_id] = descriptor
            if descriptor.published_at < oldest:
                oldest = descriptor.published_at
        self._oldest_published = oldest
        self.publishes_received += len(descriptors)

    def fetch(
        self, descriptor_id: DescriptorId, now: Timestamp, log: bool = True
    ) -> Optional[StoredDescriptor]:
        """Answer a client fetch, recording it in the request accounting."""
        when = int(now)
        if when - self._last_expiry_sweep >= self.EXPIRY_GRANULARITY:
            self._expire(when)
        descriptor = self._store.get(descriptor_id)
        if descriptor is not None and descriptor.published_at <= when - self.RETENTION:
            # Exact retention semantics even between lazy sweeps.
            del self._store[descriptor_id]
            descriptor = None
        if log:
            found = descriptor is not None
            counts = self.request_counts.get(descriptor_id)
            if counts is None:
                self.request_counts[descriptor_id] = [1, 0] if found else [0, 1]
            else:
                counts[0 if found else 1] += 1
            if self.keep_log:
                hour = when - when % HOUR
                tally = self._hourly.get(hour)
                if tally is None:
                    tally = self._hourly[hour] = {}
                tally[descriptor_id] = tally.get(descriptor_id, 0) + 1
        return descriptor

    @property
    def total_requests(self) -> int:
        """Total logged fetches (found + not found)."""
        return sum(found + missing for found, missing in self.request_counts.values())

    def hourly_requests(self) -> Dict[Timestamp, Dict[DescriptorId, int]]:
        """Logged fetches per hour: hour start → descriptor ID → count.

        Raises when this directory keeps no tally.
        """
        if not self.keep_log:
            raise ReproError(
                f"HSDir {self.relay_id} keeps no request log (keep_log=False); "
                "only its per-ID request_counts are recorded"
            )
        return self._hourly

    def stored_descriptors(self, now: Timestamp) -> List[StoredDescriptor]:
        """All unexpired descriptors currently held (harvest read-out)."""
        self._expire(now)
        cutoff = int(now) - self.RETENTION
        return [d for d in self._store.values() if d.published_at > cutoff]

    def _expire(self, now: Timestamp) -> None:
        """The hourly sweep: drop every descriptor past retention.

        The walk runs only when the watermark says something may be due; it
        deletes exactly what a walk on every sweep would, at the same
        sweeps, so dict insertion order is unchanged.
        """
        if int(now) - self._last_expiry_sweep < self.EXPIRY_GRANULARITY:
            return
        self._last_expiry_sweep = int(now)
        cutoff = int(now) - self.RETENTION
        if self._oldest_published > cutoff:
            return
        store = self._store
        expired = [
            desc_id
            for desc_id, stored in store.items()
            if stored.published_at <= cutoff
        ]
        for desc_id in expired:
            del store[desc_id]
        self._oldest_published = min(
            (stored.published_at for stored in store.values()),
            default=self._NOTHING_STORED,
        )
