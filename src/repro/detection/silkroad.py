"""The Silk Road case study (Section VII).

Builds ~33 months of consensus history — 1 February 2011 to 31 October
2013, the market's public lifetime — with the HSDir ring growing from 757
to 1,862 relays as it did, plus honest churn and occasional honest key
rotations.  Into this history it injects the three tracking behaviours the
paper reports finding:

* **our-trackers** (from November 2012): the authors' own measurement
  relays, which "performed fingerprint changes on multiple occasions, each
  time with a close distance" (ratio ≳ 100);
* **may-episode** (21 May – 3 June 2013): a set of same-named servers
  taking over one of the six responsible slots nearly every period
  (skipping only four), the only servers crossing a positioning ratio of
  10,000;
* **aug-episode** (31 August 2013): six relays from three IP addresses
  seizing *all six* responsible HSDirs for one full period — a month
  before the FBI takedown.

Plus the year-one oddity: a server that mostly lacks the HSDir flag but
obtains it, three times, exactly when Silk Road would choose it.

Detection code never sees the injection ground truth; tests compare the
analyzer's findings against it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.crypto.descriptor_id import descriptor_id
from repro.crypto.keys import KeyPair
from repro.crypto.onion import OnionAddress, onion_address_from_key
from repro.crypto.ring import RING_SIZE
from repro.detection.analyzer import ServerKey
from repro.detection.study import SilkroadStudyConfig
from repro.net.address import AddressPool
from repro.relay.relay import Relay
from repro.sim.clock import DAY, HOUR, SimClock, Timestamp, parse_date
from repro.sim.rng import derive_rng

if TYPE_CHECKING:
    from repro.dirauth.consensus import Consensus
    from repro.tornet import TorNetwork

SILKROAD_TAKEDOWN = parse_date("2013-10-02")

OUR_TRACKING_START = parse_date("2012-11-15")
OUR_TRACKING_END = parse_date("2012-12-31")
MAY_EPISODE_START = parse_date("2013-05-21")
MAY_EPISODE_END = parse_date("2013-06-03")
AUG_EPISODE_DAY = parse_date("2013-08-31")


@dataclass
class SilkroadWorld:
    """The study's target plus injection ground truth."""

    config: SilkroadStudyConfig
    silkroad_onion: OnionAddress
    # entity name -> set of (ip, or_port) server keys it operated
    ground_truth: Dict[str, Set[ServerKey]] = field(default_factory=dict)
    # entity name -> (first, last) timestamps of its campaign
    campaigns: Dict[str, Tuple[Timestamp, Timestamp]] = field(default_factory=dict)


class SilkroadStudy:
    """Builds the case-study world."""

    def __init__(self, config: Optional[SilkroadStudyConfig] = None) -> None:
        self.config = config if config is not None else SilkroadStudyConfig()
        # Silk Road's identity (a generated onion stands in for
        # silkroadvb5piz3r.onion; v2 addresses cannot be forged offline).
        self._silkroad_key = KeyPair.generate(
            derive_rng(self.config.seed, "silkroad", "identity")
        )
        self.silkroad_onion = onion_address_from_key(self._silkroad_key.public_der)

    # ---------------------------------------------------------------- #

    def build(
        self, on_consensus: Optional[Callable[[Consensus], None]] = None
    ) -> SilkroadWorld:
        """Run the 33-month simulation.

        Each consensus it builds, the priming one included, is handed to
        ``on_consensus`` (oldest first) and kept no longer than the next
        build.
        """
        from repro.tornet import TorNetwork

        cfg = self.config
        seed = cfg.seed
        honest_rng = derive_rng(seed, "silkroad", "honest")
        pool = AddressPool(derive_rng(seed, "silkroad", "ips"))
        onion = self.silkroad_onion
        # permanent id byte 0 equals fingerprint byte 0 by construction of
        # the onion address (both are the first byte of SHA1(public key)).
        permanent_id_offset = (self._silkroad_key.fingerprint[0] * DAY) // 256

        network = TorNetwork(clock=SimClock(cfg.start - 2 * DAY))

        def rebuild(now: Timestamp) -> None:
            consensus = network.rebuild_consensus(now)
            if on_consensus is not None:
                on_consensus(consensus)

        start_count = max(10, round(cfg.hsdir_start_count * cfg.scale))
        end_count = max(start_count, round(cfg.hsdir_end_count * cfg.scale))

        relays: List[Relay] = []
        for index in range(start_count):
            relay = Relay(
                nickname=f"relay{index:05d}",
                ip=pool.allocate(),
                or_port=9001,
                keypair=KeyPair.generate(honest_rng),
                bandwidth=honest_rng.randint(100, 5000),
                started_at=cfg.start - honest_rng.randint(5, 600) * DAY,
            )
            relays.append(relay)
            network.add_relay(relay)
        next_relay_index = start_count

        world = SilkroadWorld(config=cfg, silkroad_onion=onion)

        injectors = self._build_injectors(network, pool, onion, world)

        # Prime the consensus so injectors can read the ring size.
        rebuild(cfg.start - DAY)

        # One consensus per descriptor period, aligned to Silk Road's
        # rotation offset (detection operates at period granularity).
        first_period = (cfg.start + permanent_id_offset) // DAY + 1
        last_period = (cfg.end + permanent_id_offset) // DAY
        total_periods = last_period - first_period
        for period in range(first_period, last_period + 1):
            period_start = period * DAY - permanent_id_offset
            progress = (period - first_period) / max(1, total_periods)
            target = start_count + (end_count - start_count) * progress

            # Honest churn: deaths, rare key rotations, growth to target.
            alive = [relay for relay in relays if relay.reachable]
            for relay in alive:
                roll = honest_rng.random()
                if roll < cfg.period_death_probability:
                    relay.set_reachable(False, period_start - 2 * HOUR)
                    # The operator is gone for good; stop monitoring so the
                    # 33-month run does not drag a graveyard through every
                    # consensus build.
                    network.authority.deregister(relay)
                elif roll < cfg.period_death_probability + cfg.period_rotation_probability:
                    relay.rotate_key(honest_rng, period_start - 26 * HOUR)
            alive_count = sum(1 for relay in relays if relay.reachable)
            while alive_count < target:
                relay = Relay(
                    nickname=f"relay{next_relay_index:05d}",
                    ip=pool.allocate(),
                    or_port=9001,
                    keypair=KeyPair.generate(honest_rng),
                    bandwidth=honest_rng.randint(100, 5000),
                    started_at=period_start - 26 * HOUR,
                )
                next_relay_index += 1
                relays.append(relay)
                network.add_relay(relay)
                alive_count += 1

            for injector in injectors:
                injector.before_period(period_start)

            rebuild(period_start)

        return world

    # ---------------------------------------------------------------- #

    def _build_injectors(
        self,
        network: TorNetwork,
        pool: AddressPool,
        onion: OnionAddress,
        world: SilkroadWorld,
    ) -> List["_Injector"]:
        cfg = self.config
        injectors: List[_Injector] = []
        if cfg.inject_year1_oddity:
            injectors.append(
                _Year1Oddity(network, pool, onion, world, derive_rng(cfg.seed, "inj", "y1"))
            )
        if cfg.inject_our_trackers:
            injectors.append(
                _OurTrackers(network, pool, onion, world, derive_rng(cfg.seed, "inj", "ours"))
            )
        if cfg.inject_may_episode:
            injectors.append(
                _MayEpisode(network, pool, onion, world, derive_rng(cfg.seed, "inj", "may"))
            )
        if cfg.inject_aug_episode:
            injectors.append(
                _AugEpisode(network, pool, onion, world, derive_rng(cfg.seed, "inj", "aug"))
            )
        return injectors


class _Injector:
    """Base class: a tracking entity that acts before each period."""

    name = "injector"

    def __init__(
        self,
        network: TorNetwork,
        pool: AddressPool,
        onion: OnionAddress,
        world: SilkroadWorld,
        rng: random.Random,
    ) -> None:
        self.network = network
        self.pool = pool
        self.onion = onion
        self.world = world
        self.rng = rng
        self.relays: List[Relay] = []

    def _spawn(self, nickname: str, ip: Optional[int] = None, or_port: int = 9001) -> Relay:
        relay = Relay(
            nickname=nickname,
            ip=ip if ip is not None else self.pool.allocate(),
            or_port=or_port,
            keypair=KeyPair.generate(self.rng),
            bandwidth=self.rng.randint(200, 1500),
            started_at=self.network.clock.now,
        )
        self.network.add_relay(relay)
        self.relays.append(relay)
        self.world.ground_truth.setdefault(self.name, set()).add(relay.address)
        return relay

    def _position_for_period(
        self, relay: Relay, target_period_start: Timestamp, ratio: float, replica: int,
        slot: int = 0, up_since: Optional[Timestamp] = None,
    ) -> None:
        """Grind (forge) a key so ``relay`` lands just after the target
        descriptor ID of the period starting at ``target_period_start``.

        The rotation happens *now*; the caller must leave ≥ 25 hours before
        the target period so the HSDir flag is back, or backdate the
        restarted uptime clock with ``up_since``.  ``slot`` staggers
        multiple relays onto consecutive responsible positions.
        """
        desc = descriptor_id(self.onion, target_period_start, replica)
        target_point = int.from_bytes(desc, "big")
        ring_size = max(1, self.network.consensus.hsdir_count)
        max_distance = max(1, int(RING_SIZE / ring_size / ratio))
        key = KeyPair.forge_near(
            self.rng, (target_point + slot * max_distance * 2) % RING_SIZE, max_distance
        )
        relay.adopt_key(key, self.network.clock.now, up_since=up_since)

    def _mark_campaign(self, when: Timestamp) -> None:
        first, last = self.world.campaigns.get(self.name, (when, when))
        self.world.campaigns[self.name] = (min(first, when), max(last, when))

    def before_period(self, period_start: Timestamp) -> None:
        """Called just before the consensus for ``period_start`` is built."""
        raise NotImplementedError


class _Year1Oddity(_Injector):
    """A server that has HSDir only on the three occasions Silk Road
    'chooses' it (it positions itself, moderately, and hides otherwise)."""

    name = "year1-oddity"

    OCCASIONS = (
        parse_date("2011-04-10"),
        parse_date("2011-07-22"),
        parse_date("2011-11-05"),
    )

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.relay = self._spawn("oddball")
        self.relay.set_reachable(False, self.network.clock.now)
        self._armed_for: Optional[Timestamp] = None

    def before_period(self, period_start: Timestamp) -> None:
        # Arm ~2 periods ahead of each occasion so uptime is ready.
        for occasion in self.OCCASIONS:
            lead = occasion - period_start
            if 0 < lead <= 2 * DAY and self._armed_for != occasion:
                self.relay.set_reachable(True, self.network.clock.now - 30 * HOUR)
                # slot=1 keeps the forged distance *bounded away from zero*
                # (within (2d, 3d] of the descriptor ID for d = avg/40): the
                # oddity positions itself, but below the ratio-100 threshold
                # — year one must show "no clear indication of tracking".
                # The operator actually rotated a day earlier, so the new key
                # already has the 25 hours of uptime HSDir needs.
                self._position_for_period(
                    self.relay, occasion, ratio=40.0, replica=0, slot=1,
                    up_since=self.network.clock.now - 30 * HOUR,
                )
                self._armed_for = occasion
                self._mark_campaign(occasion)
                return
        # Disappear again one period after each occasion.
        if self._armed_for is not None and period_start > self._armed_for:
            self.relay.set_reachable(False, self.network.clock.now)
            self._armed_for = None


class _OurTrackers(_Injector):
    """The authors' own measurement relays (Nov–Dec 2012): repeated
    fingerprint changes, each landing close (ratio ≳ 150)."""

    name = "our-trackers"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.pair = [self._spawn(f"uniluxmbr{i}") for i in range(2)]
        self._next_strike: Optional[Timestamp] = None

    def before_period(self, period_start: Timestamp) -> None:
        if not OUR_TRACKING_START <= period_start <= OUR_TRACKING_END:
            return
        # Strike every ~4th period: reposition both relays for the period
        # after next (leaving > 25 h of uptime after the key change).
        period_index = int(period_start // DAY)
        if period_index % 4 != 0:
            return
        target = period_start + 2 * DAY
        for replica, relay in enumerate(self.pair):
            self._position_for_period(relay, target, ratio=150.0, replica=replica)
        self._mark_campaign(target)


class _MayEpisode(_Injector):
    """21 May – 3 Jun 2013: same-named servers hold one of the six slots
    almost every period, at ratios beyond 10,000."""

    name = "may-episode"
    SKIPPED_PERIODS = 4

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.team = [self._spawn(f"DocSearchRelay{i}") for i in range(4)]
        episode_days = (MAY_EPISODE_END - MAY_EPISODE_START) // DAY + 1
        skips = self.rng.sample(range(episode_days), self.SKIPPED_PERIODS)
        self._skip_offsets = set(skips)
        self._turn = 0

    def before_period(self, period_start: Timestamp) -> None:
        # Position two periods ahead so the 25-hour clock is satisfied.
        target = period_start + 2 * DAY
        if not MAY_EPISODE_START <= target <= MAY_EPISODE_END:
            return
        offset = (target - MAY_EPISODE_START) // DAY
        if offset in self._skip_offsets:
            return
        relay = self.team[self._turn % len(self.team)]
        self._turn += 1
        self._position_for_period(
            relay, target, ratio=15_000.0, replica=self._turn % 2
        )
        self._mark_campaign(target)


class _AugEpisode(_Injector):
    """31 Aug 2013: six relays from three IPs seize all six slots."""

    name = "aug-episode"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.team: List[Relay] = []
        for ip_index in range(3):
            ip = self.pool.allocate()
            for port_index in range(2):
                self.team.append(
                    self._spawn(
                        f"globalsnoop{ip_index}{port_index}",
                        ip=ip,
                        or_port=9001 + port_index,
                    )
                )
        self._done = False

    def before_period(self, period_start: Timestamp) -> None:
        if self._done:
            return
        target = period_start + 2 * DAY
        if not AUG_EPISODE_DAY <= target < AUG_EPISODE_DAY + DAY:
            return
        # Six relays, two replicas × three slots each: stagger positions so
        # they occupy all six responsible positions.
        for index, relay in enumerate(self.team):
            replica = index // 3
            slot = index % 3
            self._position_for_period(
                relay, target, ratio=8_000.0, replica=replica, slot=slot
            )
        self._mark_campaign(target)
        self._done = True
