"""The simulated Tor network facade.

:class:`TorNetwork` wires the substrates together: a directory-authority set
publishing hourly consensuses, one :class:`~repro.hsdir.directory.HSDirServer`
per relay, descriptor publication to the six responsible directories, and
the client fetch path.  Measurement code (harvester, scanner, clients,
trackers) interacts only with this facade and with the public crypto
functions — never with simulator ground truth.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.descriptor_id import REPLICAS, DescriptorId, descriptor_id
from repro.crypto.keys import Fingerprint
from repro.crypto.onion import OnionAddress
from repro.dirauth.authority import DirectoryAuthoritySet
from repro.dirauth.consensus import Consensus
from repro.dirauth.voting import FlagPolicy
from repro.errors import SimulationError
from repro.hs.descriptor import make_stored_descriptors
from repro.hs.service import HiddenService
from repro.hsdir.directory import HSDirServer, StoredDescriptor
from repro.hsdir.ring_view import (
    responsible_for_replica,
    responsible_replica_lists_batch,
)
from repro.relay.relay import Relay
from repro.sim.clock import SimClock, Timestamp
from repro.sim.rng import derive_rng

#: One service's upload: the service, its per-replica responsible
#: fingerprints and its period's descriptor IDs (each ``None`` to derive).
PublishJob = Tuple[
    HiddenService,
    Optional[Sequence[Sequence[Fingerprint]]],
    Optional[Sequence[DescriptorId]],
]


class FetchTrace:
    """Everything observable about one client descriptor fetch.

    The deanonymisation analysis (Section VI) consumes these traces: the
    attack succeeds when the *directory* relay is attacker-controlled (it
    injects the traffic signature into the response) **and** the client's
    *guard* relay is attacker-controlled (it sees the signature pass by and
    reads the client's IP from the TCP connection).
    """

    __slots__ = (
        "time",
        "client_ip",
        "guard_fingerprint",
        "hsdir_relay_id",
        "hsdir_fingerprint",
        "descriptor_id",
        "found",
    )

    def __init__(
        self,
        time: Timestamp,
        client_ip: int,
        guard_fingerprint: Optional[Fingerprint],
        hsdir_relay_id: int,
        hsdir_fingerprint: Fingerprint,
        descriptor_id: DescriptorId,
        found: bool,
    ) -> None:
        self.time = time
        self.client_ip = client_ip
        self.guard_fingerprint = guard_fingerprint
        self.hsdir_relay_id = hsdir_relay_id
        self.hsdir_fingerprint = hsdir_fingerprint
        self.descriptor_id = descriptor_id
        self.found = found


class PublishTrace:
    """Everything observable about one descriptor upload.

    The predecessor attack ([8], recapped in §II.B) deanonymises hidden
    *services*: an attacker-controlled responsible directory answers the
    upload with a traffic signature, and if the service's entry guard is
    also the attacker's, the guard reads the operator's IP off the circuit.
    """

    __slots__ = (
        "time",
        "onion",
        "descriptor_id",
        "operator_ip",
        "guard_fingerprint",
        "hsdir_relay_id",
        "hsdir_fingerprint",
    )

    def __init__(
        self,
        time: Timestamp,
        onion: OnionAddress,
        descriptor_id: DescriptorId,
        operator_ip: int,
        guard_fingerprint: Optional[Fingerprint],
        hsdir_relay_id: int,
        hsdir_fingerprint: Fingerprint,
    ) -> None:
        self.time = time
        self.onion = onion
        self.descriptor_id = descriptor_id
        self.operator_ip = operator_ip
        self.guard_fingerprint = guard_fingerprint
        self.hsdir_relay_id = hsdir_relay_id
        self.hsdir_fingerprint = hsdir_fingerprint


class TorNetwork:
    """The simulated network: relays, consensus, HSDir stores, fetch path."""

    def __init__(
        self,
        policy: Optional[FlagPolicy] = None,
        clock: Optional[SimClock] = None,
        authority: Optional[DirectoryAuthoritySet] = None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock(0)
        # Any object speaking the DirectoryAuthoritySet protocol works —
        # e.g. a voting repro.dirauth.council.AuthorityCouncil.
        self.authority = (
            authority if authority is not None else DirectoryAuthoritySet(policy)
        )
        self._hsdir_servers: Dict[int, HSDirServer] = {}
        self._relays_by_fingerprint: Dict[Fingerprint, Relay] = {}
        self._consensus: Optional[Consensus] = None
        self._fetch_observers: List[Callable[[FetchTrace], None]] = []
        self._publish_observers: List[Callable[[PublishTrace], None]] = []
        self._publish_rng = derive_rng(0xB0B, "tornet", "publish")

    # ------------------------------------------------------------------ #
    # Relay management
    # ------------------------------------------------------------------ #

    def add_relay(self, relay: Relay) -> None:
        """Register a relay and provision its directory-side store.

        The store keeps per-ID request counters but no hourly tally; an
        analysis that reads a directory's tally turns ``keep_log`` on for
        that directory (Table II does so for its attacker fleet).
        """
        self.authority.register(relay)
        self._hsdir_servers[relay.relay_id] = HSDirServer(
            relay.relay_id, keep_log=False
        )

    def hsdir_server_for(self, relay: Relay) -> HSDirServer:
        """The directory-side store of ``relay``."""
        try:
            return self._hsdir_servers[relay.relay_id]
        except KeyError as exc:
            raise SimulationError(f"relay not in network: {relay}") from exc

    # ------------------------------------------------------------------ #
    # Consensus
    # ------------------------------------------------------------------ #

    @property
    def consensus(self) -> Consensus:
        """The consensus currently in force."""
        if self._consensus is None:
            raise SimulationError("no consensus built yet; call rebuild_consensus")
        return self._consensus

    def rebuild_consensus(self, now: Optional[Timestamp] = None) -> Consensus:
        """Publish a fresh consensus at ``now`` (default: current clock)."""
        if now is None:
            now = self.clock.now
        else:
            self.clock.advance_to(now)
        consensus = self.authority.build_consensus(now)
        self._consensus = consensus
        self._relays_by_fingerprint = self.authority.admitted
        return consensus

    def relay_for_fingerprint(self, fingerprint: Fingerprint) -> Optional[Relay]:
        """The consensus-listed relay currently holding ``fingerprint``."""
        return self._relays_by_fingerprint.get(fingerprint)

    # ------------------------------------------------------------------ #
    # Descriptor publication (service side)
    # ------------------------------------------------------------------ #

    def responsible_set(
        self, onion: OnionAddress, now: Optional[Timestamp] = None
    ) -> frozenset:
        """The six responsible fingerprints for ``onion`` right now.

        Services watch this set across consensuses and republish when it
        changes — the behaviour the shadow-relay harvest exploits: every
        attacker relay that rotates into the consensus pulls fresh uploads
        from the services whose descriptor IDs fall in its ring segment.
        """
        if now is None:
            now = self.clock.now
        fingerprints: List[Fingerprint] = []
        for replica in range(REPLICAS):
            desc_id = descriptor_id(onion, now, replica)
            fingerprints.extend(self.consensus.hsdir_ring.responsible_for(desc_id))
        return frozenset(fingerprints)

    def responsible_replica_lists_batch(
        self, onions: Sequence[OnionAddress], now: Optional[Timestamp] = None
    ) -> List[List[List[Fingerprint]]]:
        """Per-replica responsible fingerprints for many onions at once.

        Element ``[i][replica]`` is byte-identical to the scalar
        ``responsible_for_replica`` chain behind :meth:`responsible_set`;
        the batch shares one secret-part table and one vectorised ring
        bisect across the whole population.
        """
        if now is None:
            now = self.clock.now
        return responsible_replica_lists_batch(self.consensus, onions, now)

    def publish_service(
        self,
        service: HiddenService,
        now: Optional[Timestamp] = None,
        responsible_per_replica: Optional[Sequence[Sequence[Fingerprint]]] = None,
        descriptor_ids: Optional[Sequence[DescriptorId]] = None,
    ) -> int:
        """Upload both replicas of ``service`` to the responsible HSDirs.

        The one-job case of :meth:`publish_services`; returns the number of
        directories that accepted the upload.
        """
        return self.publish_services(
            [(service, responsible_per_replica, descriptor_ids)], now
        )

    def publish_services(
        self, jobs: Sequence[PublishJob], now: Optional[Timestamp] = None
    ) -> int:
        """Upload both replicas of every online job's service, in job order.

        Returns the number of directories that accepted an upload (up to
        ``REPLICAS * 3`` per service; fewer if responsible relays are not in
        the network map, which cannot happen for consensus-derived
        fingerprints).

        A job is ``(service, responsible_per_replica, descriptor_ids)``.
        ``responsible_per_replica`` lets a caller that already batched the
        placement (``responsible_replica_lists_batch``) hand the per-replica
        fingerprint lists in; ``None`` derives them here with the scalar
        chain, which delivers to identical directories in identical order.
        ``descriptor_ids`` likewise hands in the period's two descriptor
        IDs, so the descriptors do not derive them again.

        Publish traces and guard picks follow the per-upload order (job,
        replica, responsible directory).  Each directory's uploads are
        collected in that same order and land with one
        :meth:`~repro.hsdir.directory.HSDirServer.store_many`, so every
        store ends exactly as one ``store`` per upload would leave it.
        """
        if now is None:
            now = self.clock.now
        observers = self._publish_observers
        relays = self._relays_by_fingerprint
        uploads: Dict[int, List[StoredDescriptor]] = {}
        delivered = 0
        for service, responsible_per_replica, descriptor_ids in jobs:
            if not service.is_online(now):
                continue
            # Service-side guards are only materialised when someone is
            # watching the publish path (the §II.B attack): guard upkeep for
            # tens of thousands of services would otherwise dominate harvest
            # runs.
            guards = (
                service.ensure_guards(self, self._publish_rng) if observers else None
            )
            # One frozen StoredDescriptor per replica, shared across all its
            # responsible directories.
            for stored in make_stored_descriptors(
                service.keypair, now, descriptor_ids
            ):
                responsible = (
                    responsible_per_replica[stored.replica]
                    if responsible_per_replica is not None
                    else responsible_for_replica(
                        self.consensus, service.onion, now, stored.replica
                    )
                )
                for fingerprint in responsible:
                    relay = relays.get(fingerprint)
                    if relay is None:
                        continue
                    batch = uploads.get(relay.relay_id)
                    if batch is None:
                        uploads[relay.relay_id] = [stored]
                    else:
                        batch.append(stored)
                    delivered += 1
                    if guards is not None:
                        trace = PublishTrace(
                            time=int(now),
                            onion=service.onion,
                            descriptor_id=stored.descriptor_id,
                            operator_ip=service.operator_ip,
                            guard_fingerprint=(
                                guards.pick() if guards.fingerprints else None
                            ),
                            hsdir_relay_id=relay.relay_id,
                            hsdir_fingerprint=fingerprint,
                        )
                        for observer in observers:
                            observer(trace)
            service.publish_count += 1
        servers = self._hsdir_servers
        for relay_id, descriptors in uploads.items():
            servers[relay_id].store_many(descriptors, now)
        return delivered

    # ------------------------------------------------------------------ #
    # Descriptor fetch (client side)
    # ------------------------------------------------------------------ #

    def add_fetch_observer(self, observer: Callable[[FetchTrace], None]) -> None:
        """Register a callback invoked for every client fetch."""
        self._fetch_observers.append(observer)

    def add_publish_observer(self, observer: Callable[[PublishTrace], None]) -> None:
        """Register a callback invoked for every descriptor upload."""
        self._publish_observers.append(observer)

    def fetch_descriptor_id(
        self,
        desc_id: DescriptorId,
        rng: random.Random,
        now: Optional[Timestamp] = None,
        client_ip: int = 0,
        guard_fingerprint: Optional[Fingerprint] = None,
    ) -> Optional[StoredDescriptor]:
        """Fetch a raw descriptor ID, as a (possibly confused) client would.

        The client queries the responsible directories for ``desc_id`` in a
        random order until one answers.  Every queried directory logs the
        request — this is how phantom requests for never-published
        descriptors still show up in the harvest (Section V observed 80% of
        fetches were for non-existent descriptors).
        """
        if now is None:
            now = self.clock.now
        # responsible_for hands out a fresh list: shuffle it in place.
        order = self.consensus.hsdir_ring.responsible_for(desc_id)
        rng.shuffle(order)
        observers = self._fetch_observers
        for fingerprint in order:
            relay = self._relays_by_fingerprint.get(fingerprint)
            if relay is None:
                continue
            server = self._hsdir_servers[relay.relay_id]
            found = server.fetch(desc_id, now)
            if observers:
                trace = FetchTrace(
                    time=int(now),
                    client_ip=client_ip,
                    guard_fingerprint=guard_fingerprint,
                    hsdir_relay_id=relay.relay_id,
                    hsdir_fingerprint=fingerprint,
                    descriptor_id=desc_id,
                    found=found is not None,
                )
                for observer in observers:
                    observer(trace)
            if found is not None:
                return found
        return None

    def fetch_onion(
        self,
        onion: OnionAddress,
        rng: random.Random,
        now: Optional[Timestamp] = None,
        client_ip: int = 0,
        guard_fingerprint: Optional[Fingerprint] = None,
    ) -> Optional[StoredDescriptor]:
        """Fetch a descriptor by onion address (client picks a replica)."""
        if now is None:
            now = self.clock.now
        replicas = list(range(REPLICAS))
        rng.shuffle(replicas)
        for replica in replicas:
            desc_id = descriptor_id(onion, now, replica)
            stored = self.fetch_descriptor_id(
                desc_id,
                rng,
                now=now,
                client_ip=client_ip,
                guard_fingerprint=guard_fingerprint,
            )
            if stored is not None:
                return stored
        return None

    def descriptor_available(self, onion: OnionAddress, now: Timestamp) -> bool:
        """Whether any responsible directory holds a descriptor for ``onion``.

        Used by the scanner's transport: connecting to a hidden service first
        requires fetching its descriptor.  This probe does not pollute the
        request logs (the scanner's own fetches are not client traffic the
        popularity analysis should count).
        """
        for replica in range(REPLICAS):
            desc_id = descriptor_id(onion, now, replica)
            for fingerprint in self.consensus.hsdir_ring.responsible_for(desc_id):
                relay = self._relays_by_fingerprint.get(fingerprint)
                if relay is None:
                    continue
                server = self._hsdir_servers[relay.relay_id]
                if server.fetch(desc_id, now, log=False) is not None:
                    return True
        return False
