"""The client-deanonymisation attack.

Preconditions (Section VI): the attacker controls (a) a responsible HSDir
of the target service and (b) some share of guard capacity.  Whenever the
malicious directory answers a fetch for the target's descriptor, it wraps
the response in the traffic signature; if the client's entry guard for that
circuit happens to be the attacker's, the guard sees the signature pass and
reads the client's IP address off the TCP connection.

The attack is *opportunistic*: per fetch, the success probability is the
attacker's guard-selection probability (≈ its share of guard bandwidth).
Section VI's punchline applications — identifying Silk Road sellers by
their periodic visit patterns, and mapping the geography of a botnet's
victims — both consume the captured (IP, time) stream this class produces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set

from repro.crypto.descriptor_id import DescriptorId
from repro.crypto.keys import Fingerprint, KeyPair
from repro.errors import AttackError
from repro.net.address import AddressPool
from repro.relay.relay import Relay
from repro.sim.clock import DAY, Timestamp
from repro.sim.rng import derive_rng
from repro.tornet import FetchTrace, TorNetwork
from repro.tracking.signature import (
    SignatureDetector,
    TrafficSignature,
    honest_response_cells,
)


@dataclass(frozen=True)
class CapturedClient:
    """One deanonymised client observation."""

    time: Timestamp
    client_ip: int
    descriptor_id: DescriptorId
    guard_fingerprint: Fingerprint


def deploy_attacker_guards(
    network: TorNetwork,
    count: int,
    rng: random.Random,
    bandwidth: int = 5000,
    address_pool: Optional[AddressPool] = None,
    age_days: int = 30,
) -> List[Relay]:
    """Stand up ``count`` high-bandwidth relays old enough to be Guards.

    Guard status needs sustained uptime, so the relays are backdated by
    ``age_days`` — operationally this corresponds to having run them for a
    month before the measurement, as the authors did with their EC2 fleet.
    """
    if count < 1:
        raise AttackError(f"need at least one guard: {count}")
    pool = address_pool if address_pool is not None else AddressPool(rng)
    started = network.clock.now - age_days * DAY
    guards: List[Relay] = []
    for index in range(count):
        relay = Relay(
            nickname=f"fastguard{index:03d}",
            ip=pool.allocate(),
            or_port=443,
            keypair=KeyPair.generate(rng),
            bandwidth=bandwidth,
            started_at=started,
        )
        network.add_relay(relay)
        guards.append(relay)
    return guards


class ClientDeanonAttack:
    """Wires the malicious HSDir + malicious guard observation together.

    Attach to a network with :meth:`attach`; every client fetch produces a
    :class:`~repro.tornet.FetchTrace`, and the attack classifies it:

    * directory not ours, or descriptor not targeted → nothing observed;
    * our directory → signature injected (counted);
    * signature injected *and* the client's guard is ours → capture.
    """

    def __init__(
        self,
        hsdir_relay_ids: Set[int],
        guard_fingerprints: FrozenSet[Fingerprint],
        target_descriptor_ids: Optional[Set[DescriptorId]] = None,
        signature: Optional[TrafficSignature] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.hsdir_relay_ids = set(hsdir_relay_ids)
        self.guard_fingerprints = frozenset(guard_fingerprints)
        self.target_descriptor_ids = target_descriptor_ids
        self.signature = signature if signature is not None else TrafficSignature()
        self._detector = SignatureDetector(self.signature)
        self._rng = rng if rng is not None else derive_rng(0, "tracking", "deanon")
        self.captures: List[CapturedClient] = []
        self.signatures_injected = 0
        self.target_fetches_seen = 0
        self.false_positives = 0

    def attach(self, network: TorNetwork) -> None:
        """Start observing the network's fetch path."""
        network.add_fetch_observer(self._observe)

    def retarget(self, descriptor_ids: Set[DescriptorId]) -> None:
        """Update the watched descriptor IDs (they rotate every 24 h)."""
        self.target_descriptor_ids = set(descriptor_ids)

    def _is_target(self, desc_id: DescriptorId) -> bool:
        if self.target_descriptor_ids is None:
            return True  # watch everything
        return desc_id in self.target_descriptor_ids

    def _observe(self, trace: FetchTrace) -> None:
        at_our_hsdir = trace.hsdir_relay_id in self.hsdir_relay_ids
        guard_is_ours = (
            trace.guard_fingerprint is not None
            and trace.guard_fingerprint in self.guard_fingerprints
        )
        if at_our_hsdir and self._is_target(trace.descriptor_id):
            self.target_fetches_seen += 1
            bursts = self.signature.encode(payload_cells=3)
            self.signatures_injected += 1
        else:
            bursts = honest_response_cells(self._rng)
        if not guard_is_ours:
            return
        # The attacker's guard inspects the response cells flowing to the
        # client it is fronting for.
        if self._detector.matches(bursts):
            if at_our_hsdir and self._is_target(trace.descriptor_id):
                self.captures.append(
                    CapturedClient(
                        time=trace.time,
                        client_ip=trace.client_ip,
                        descriptor_id=trace.descriptor_id,
                        guard_fingerprint=trace.guard_fingerprint,
                    )
                )
            else:
                self.false_positives += 1

    @property
    def unique_client_ips(self) -> Set[int]:
        """Distinct client IPs captured."""
        return {capture.client_ip for capture in self.captures}

    def capture_rate(self) -> float:
        """Captures per signature injected (≈ attacker guard share)."""
        if not self.signatures_injected:
            return 0.0
        return len(self.captures) / self.signatures_injected
