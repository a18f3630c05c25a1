"""The hidden service.

Couples an identity key (→ onion address) with the host machine behind it
and a publication lifecycle: while online, the service uploads fresh
descriptors at every 24-hour period boundary.  The host half (ports,
content, botnet behaviour) is supplied by the population generator; this
class owns only the Tor-protocol side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.crypto.descriptor_id import DescriptorId, time_period_boundaries
from repro.crypto.keys import KeyPair
from repro.crypto.onion import OnionAddress, onion_address_from_key, permanent_id_from_onion
from repro.hs.descriptor import HSDescriptor, make_descriptors
from repro.net.endpoint import SimpleHost
from repro.sim.clock import Timestamp
from repro.sim.rng import derive_rng

if TYPE_CHECKING:  # circular: tornet imports this module
    from repro.client.guards import GuardSet
    from repro.tornet import TorNetwork


@dataclass
class HiddenService:
    """A hidden service: key, host, and publication window.

    Attributes:
        keypair: identity key; the onion address derives from it.
        host: the machine answering rendezvous connections (ports/content).
        online_from / online_until: when the *service* publishes descriptors.
            A service can go offline (stop publishing) while its host record
            persists — this models the churn between the paper's harvest
            (4 Feb), port scans (14–21 Feb) and crawl (~April).
        operator_ip: the machine's real address — what the location-privacy
            guarantees hide and the §II.B deanonymisation attack recovers.
    """

    keypair: KeyPair
    host: SimpleHost = field(default_factory=SimpleHost)
    online_from: Timestamp = 0
    online_until: Optional[Timestamp] = None
    operator_ip: int = 0
    publish_count: int = field(default=0, repr=False)
    _guards: Optional["GuardSet"] = field(default=None, repr=False)

    @property
    def onion(self) -> OnionAddress:
        """The service's onion address."""
        return onion_address_from_key(self.keypair.public_der)

    @property
    def permanent_id(self) -> bytes:
        """First 10 bytes of the identity digest (ring-time offset source)."""
        return permanent_id_from_onion(self.onion)

    def is_online(self, now: Timestamp) -> bool:
        """Whether the service is publishing descriptors at ``now``."""
        if now < self.online_from:
            return False
        if self.online_until is not None and now >= self.online_until:
            return False
        return True

    def current_descriptors(
        self, now: Timestamp, descriptor_ids: Optional[Sequence[DescriptorId]] = None
    ) -> List[HSDescriptor]:
        """Both replica descriptors for the period containing ``now``
        (``descriptor_ids``: that period's IDs, when the caller has them)."""
        return make_descriptors(self.keypair, now, descriptor_ids)

    def next_publish_after(self, now: Timestamp) -> Timestamp:
        """The next period boundary at which the service republishes."""
        _, period_end = time_period_boundaries(now, self.permanent_id)
        return period_end

    def ensure_guards(
        self, network: "TorNetwork", rng: Optional[random.Random] = None
    ) -> "GuardSet":
        """The service's own entry guards (services build circuits too).

        Lazily created and refreshed against the current consensus; the
        first hop of every service-side circuit — publishes, rendezvous —
        comes from this set, which is what both deanonymisation attacks
        ([8] for operators, §VI for clients) ultimately race against.
        """
        from repro.client.guards import GuardSet

        if self._guards is None:
            seed_rng = rng if rng is not None else derive_rng(
                int.from_bytes(self.keypair.fingerprint[:8], "big"),
                "hs",
                "service",
                "guards",
            )
            self._guards = GuardSet(seed_rng)
        self._guards.refresh(network.consensus, network.clock.now)
        return self._guards
