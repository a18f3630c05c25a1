"""Shadow-relay fleet management.

The attacker rents ``n`` IP addresses and runs ``m`` relays on each.  The
consensus lists at most two relays per IP (the two with the highest measured
bandwidth), but the authorities monitor *all* of them and their uptime
accrues — so after 25 hours every one of the ``n × m`` relays qualifies for
HSDir.  Making the currently listed pair unreachable lets the next pair
"shadow" into the consensus with full flags.  Section II calls this
*shadowing*.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.crypto.keys import KeyPair
from repro.errors import AttackError
from repro.net.address import AddressPool, IPv4
from repro.relay.relay import Relay
from repro.sim.clock import Timestamp
from repro.tornet import TorNetwork


class ShadowFleet:
    """The attacker's relays, grouped by rented IP address."""

    def __init__(
        self,
        network: TorNetwork,
        ip_count: int,
        relays_per_ip: int,
        rng: random.Random,
        address_pool: Optional[AddressPool] = None,
        bandwidth: int = 400,
        nickname_stem: str = "trawler",
    ) -> None:
        if ip_count < 1 or relays_per_ip < 1:
            raise AttackError(
                f"fleet needs positive dimensions, got {ip_count}×{relays_per_ip}"
            )
        self.network = network
        self.ip_count = ip_count
        self.relays_per_ip = relays_per_ip
        self._rng = rng
        pool = address_pool if address_pool is not None else AddressPool(rng)
        self.by_ip: Dict[IPv4, List[Relay]] = {}
        now = network.clock.now
        for ip_index in range(ip_count):
            ip = pool.allocate()
            group: List[Relay] = []
            for relay_index in range(relays_per_ip):
                # Descending bandwidth inside the group fixes which two the
                # per-IP rule admits first, making rotation order
                # deterministic: the pair currently listed is always the
                # highest-bandwidth pair still reachable.
                relay = Relay(
                    nickname=f"{nickname_stem}{ip_index:03d}x{relay_index:03d}",
                    ip=ip,
                    or_port=9001 + relay_index,
                    keypair=KeyPair.generate(rng),
                    bandwidth=bandwidth + (relays_per_ip - relay_index) * 2,
                    started_at=now,
                )
                group.append(relay)
                network.add_relay(relay)
            self.by_ip[ip] = group

    @property
    def all_relays(self) -> List[Relay]:
        """Every attacker relay, listed or shadow."""
        return [relay for group in self.by_ip.values() for relay in group]

    def listed_relays(self) -> List[Relay]:
        """Attacker relays in the *current* consensus."""
        consensus = self.network.consensus
        return [
            relay for relay in self.all_relays if relay.fingerprint in consensus
        ]

    def reachable_relays(self) -> List[Relay]:
        """Attacker relays still reachable (not yet burned)."""
        return [relay for relay in self.all_relays if relay.reachable]

    def rotate(self, now: Timestamp) -> List[Relay]:
        """Burn the currently listed relays so shadows rotate in.

        Returns the relays that were retired (their HSDir stores should be
        harvested *before* the next consensus forgets them).  Safe to call
        when nothing is listed (returns []).
        """
        retired = self.listed_relays()
        for relay in retired:
            relay.set_reachable(False, now)
        return retired
