"""The trawling attack controller.

Timeline (mirrors Section II):

1. **Deploy** — spin up ``ip_count × relays_per_ip`` relays.  The per-IP
   consensus rule lists only two per IP, but every relay's uptime accrues.
2. **Ripen** — wait ≥ 25 hours so all relays qualify for HSDir.
3. **Sweep** — every ``rotation_interval`` hours, read out and burn the
   listed relays so fresh shadows rotate in at new ring positions.  Each
   new consensus shifts responsible sets, services republish, and the new
   attacker relays receive descriptors; client fetches hitting attacker
   relays are counted.

The sweep both harvests onion addresses and (during the measurement window)
captures the client request statistics that Section V ranks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from repro.errors import AttackError
from repro.hs.publisher import PublishScheduler
from repro.hs.service import HiddenService
from repro.net.address import AddressPool
from repro.sim.clock import HOUR, Timestamp
from repro.tornet import TorNetwork
from repro.trawl.coverage import CoverageTracker
from repro.trawl.harvest import HarvestResult, RingHistory
from repro.trawl.shadowing import ShadowFleet


@dataclass(frozen=True)
class TrawlConfig:
    """Attack parameters.

    The paper used 58 Amazon EC2 instances; ``relays_per_ip`` controls how
    many rotation waves the fleet can sustain (two listed relays are burned
    per IP per wave).
    """

    ip_count: int = 58
    relays_per_ip: int = 24
    ripen_hours: int = 26  # ≥ 25 h for the HSDir flag, plus slack
    sweep_hours: int = 12
    rotation_interval_hours: int = 1
    bandwidth: int = 400

    def __post_init__(self) -> None:
        if self.ip_count < 1 or self.relays_per_ip < 2:
            raise AttackError("fleet too small to rotate")
        if self.ripen_hours * HOUR < 25 * HOUR:
            raise AttackError("relays must ripen at least 25 hours for HSDir")
        if self.sweep_hours < 1 or self.rotation_interval_hours < 1:
            raise AttackError("sweep parameters must be positive")


class TrawlAttack:
    """Runs the full deploy → ripen → sweep pipeline."""

    def __init__(
        self,
        network: TorNetwork,
        config: TrawlConfig,
        rng: random.Random,
        address_pool: Optional[AddressPool] = None,
    ) -> None:
        self.network = network
        self.config = config
        self._rng = rng
        self._pool = address_pool
        self.fleet: Optional[ShadowFleet] = None
        self.coverage = CoverageTracker()
        self.harvest = HarvestResult()
        self.ring_history = RingHistory()

    def deploy(self) -> ShadowFleet:
        """Stand the fleet up at the current simulated time."""
        if self.fleet is not None:
            raise AttackError("fleet already deployed")
        self.fleet = ShadowFleet(
            network=self.network,
            ip_count=self.config.ip_count,
            relays_per_ip=self.config.relays_per_ip,
            rng=self._rng,
            address_pool=self._pool,
            bandwidth=self.config.bandwidth,
        )
        return self.fleet

    def run(
        self,
        services: Iterable[HiddenService],
        publisher: Optional[PublishScheduler] = None,
        hour_hook: Optional[Callable[[int, Timestamp], None]] = None,
    ) -> HarvestResult:
        """Execute the attack against the given service population.

        ``publisher`` defaults to a fresh scheduler over ``services``; pass
        an existing one to share republish state with other phases.
        ``hour_hook(sweep_hour_index, now)`` fires once per sweep hour after
        the consensus settles — the popularity experiment uses it to issue
        the client workload interleaved with the rotation.
        """
        services = list(services)
        if publisher is None:
            publisher = PublishScheduler(self.network, services)
        if self.fleet is None:
            self.deploy()
        fleet = self.fleet
        assert fleet is not None
        network = self.network
        self.harvest.started_at = network.clock.now

        # Ripen: relays accrue uptime; the network keeps breathing.
        for _ in range(self.config.ripen_hours):
            network.clock.advance_by(HOUR)
            network.rebuild_consensus()
            publisher.maintain(network.clock.now)

        # Sweep: rotate shadows in, harvest and burn.
        hours_until_rotation = 0
        for sweep_hour in range(self.config.sweep_hours):
            network.clock.advance_by(HOUR)
            if hours_until_rotation == 0:
                now = network.clock.now
                retired = fleet.rotate(now)
                self._absorb(retired, now)
                hours_until_rotation = self.config.rotation_interval_hours
            network.rebuild_consensus()
            listed = fleet.listed_relays()
            listed_positions = {relay.keypair.ring_position for relay in listed}
            self.coverage.record_wave(
                listed_positions, network.consensus.hsdir_count
            )
            # The ring's own sorted positions, shared by the snapshot.
            self.ring_history.record(
                network.clock.now,
                network.consensus.hsdir_ring.positions,
                listed_positions,
            )
            publisher.maintain(network.clock.now)
            if hour_hook is not None:
                hour_hook(sweep_hour, network.clock.now)
            hours_until_rotation -= 1

        # Final read-out of whatever is still listed.
        now = network.clock.now
        self._absorb(fleet.listed_relays(), now)
        self.harvest.finished_at = now
        return self.harvest

    def _absorb(self, relays: List, now: Timestamp) -> None:
        for relay in relays:
            server = self.network.hsdir_server_for(relay)
            self.harvest.absorb_server(server, now)
