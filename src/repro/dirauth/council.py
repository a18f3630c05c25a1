"""Multi-authority voting.

Real Tor consensuses are negotiated by ~9 directory authorities: each
measures relays independently (reachability tests can disagree — networks
flake), votes a status document, and the published consensus takes majority
flags and median bandwidths.  :class:`AuthorityCouncil` implements that
process; :class:`~repro.dirauth.authority.DirectoryAuthoritySet` remains the
single-authority fast path the large-scale experiments use (the paper's
mechanisms depend on consensus *content*, not on vote mechanics — but the
voting layer lets tests quantify how much measurement noise the majority
absorbs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.crypto.keys import Fingerprint
from repro.dirauth.consensus import Consensus, ConsensusEntry, apply_per_ip_limit
from repro.dirauth.voting import FlagPolicy
from repro.errors import ConsensusError
from repro.relay.flags import RelayFlags, flags_overlap
from repro.relay.relay import Relay
from repro.sim.clock import Timestamp
from repro.sim.rng import derive_rng, split_rng

DEFAULT_AUTHORITY_COUNT = 9


@dataclass
class AuthorityVote:
    """One authority's opinion of the network at one instant."""

    authority_id: int
    # relay_id -> (flags, measured bandwidth); absent = seen as down.
    opinions: Dict[int, tuple]


class DirectoryAuthority:
    """A single voting authority with imperfect measurement.

    ``misreachability``: probability of wrongly seeing an up relay as down
    on a given vote (transient network trouble between this authority and
    the relay).  ``bandwidth_noise``: relative σ of its bandwidth scanner.
    """

    def __init__(
        self,
        authority_id: int,
        policy: FlagPolicy,
        rng: random.Random,
        misreachability: float = 0.02,
        bandwidth_noise: float = 0.1,
    ) -> None:
        if not 0 <= misreachability < 0.5:
            raise ConsensusError(
                f"misreachability must be < 0.5 for majorities to work: "
                f"{misreachability}"
            )
        self.authority_id = authority_id
        self.policy = policy
        self._rng = rng
        self.misreachability = misreachability
        self.bandwidth_noise = bandwidth_noise

    def vote(self, relays: Iterable[Relay], now: Timestamp) -> AuthorityVote:
        """Measure every relay and produce this authority's opinion."""
        opinions: Dict[int, tuple] = {}
        for relay in relays:
            if not relay.reachable:
                continue
            if self._rng.random() < self.misreachability:
                continue  # we failed to reach it; others may succeed
            flags = self.policy.flags_for(relay, now)
            if not flags_overlap(flags, RelayFlags.RUNNING):
                continue
            measured = max(
                1,
                round(
                    relay.bandwidth
                    * (1.0 + self._rng.gauss(0.0, self.bandwidth_noise))
                ),
            )
            opinions[relay.relay_id] = (flags, measured)
        return AuthorityVote(authority_id=self.authority_id, opinions=opinions)


class AuthorityCouncil:
    """Nine authorities, one consensus.

    Protocol-compatible with :class:`DirectoryAuthoritySet` (``register``,
    ``deregister``, ``monitored_relays``, ``build_consensus``, ``admitted``),
    so it can be passed to :class:`~repro.tornet.TorNetwork` construction
    sites that accept an authority object.
    """

    def __init__(
        self,
        policy: Optional[FlagPolicy] = None,
        authority_count: int = DEFAULT_AUTHORITY_COUNT,
        rng: Optional[random.Random] = None,
        misreachability: float = 0.02,
        bandwidth_noise: float = 0.1,
    ) -> None:
        if authority_count < 1:
            raise ConsensusError(f"need at least one authority: {authority_count}")
        self.policy = policy if policy is not None else FlagPolicy()
        rng = rng if rng is not None else derive_rng(0, "dirauth", "council")
        self.authorities = [
            DirectoryAuthority(
                authority_id=index,
                policy=self.policy,
                rng=split_rng(rng, "authority", str(index)),
                misreachability=misreachability,
                bandwidth_noise=bandwidth_noise,
            )
            for index in range(authority_count)
        ]
        self._relays: Dict[int, Relay] = {}
        self.admitted: Dict[Fingerprint, Relay] = {}
        self.consensuses_built = 0

    # -- DirectoryAuthoritySet protocol ---------------------------------- #

    def register(self, relay: Relay) -> None:
        """Start monitoring ``relay``."""
        if relay.relay_id in self._relays:
            raise ConsensusError(f"relay already registered: {relay}")
        self._relays[relay.relay_id] = relay

    def register_all(self, relays: Iterable[Relay]) -> None:
        """Register many relays."""
        for relay in relays:
            self.register(relay)

    def deregister(self, relay: Relay) -> None:
        """Stop monitoring ``relay``."""
        self._relays.pop(relay.relay_id, None)

    @property
    def monitored_relays(self) -> List[Relay]:
        """Every relay currently tracked."""
        return list(self._relays.values())

    @property
    def monitored_count(self) -> int:
        """How many relays are tracked."""
        return len(self._relays)

    # -- voting ------------------------------------------------------------ #

    def build_consensus(self, now: Timestamp) -> Consensus:
        """Vote and take majorities.

        A relay is listed when a majority of authorities reached it; each
        flag needs its own majority among the listing authorities; the
        consensus bandwidth is the median of the measurements.
        """
        relays = list(self._relays.values())
        votes = [authority.vote(relays, now) for authority in self.authorities]
        quorum = len(self.authorities) // 2 + 1

        candidates: List[ConsensusEntry] = []
        owners: Dict[Fingerprint, Relay] = {}
        for relay in relays:
            supporting = [
                vote.opinions[relay.relay_id]
                for vote in votes
                if relay.relay_id in vote.opinions
            ]
            if len(supporting) < quorum:
                continue
            # Per-flag majority over ALL authorities (absent = against).
            flags = RelayFlags.RUNNING | RelayFlags.VALID
            for flag in (
                RelayFlags.FAST,
                RelayFlags.STABLE,
                RelayFlags.GUARD,
                RelayFlags.HSDIR,
                RelayFlags.EXIT,
            ):
                agreeing = sum(1 for opinion in supporting if opinion[0] & flag)
                if agreeing >= quorum:
                    flags |= flag
            bandwidths = sorted(opinion[1] for opinion in supporting)
            median = bandwidths[len(bandwidths) // 2]
            candidates.append(
                ConsensusEntry(
                    fingerprint=relay.fingerprint,
                    nickname=relay.nickname,
                    ip=relay.ip,
                    or_port=relay.or_port,
                    bandwidth=median,
                    flags=flags,
                )
            )
            owners[relay.fingerprint] = relay
        admitted = apply_per_ip_limit(candidates)
        admitted.sort(key=lambda entry: entry.fingerprint)
        self.admitted = {
            entry.fingerprint: owners[entry.fingerprint] for entry in admitted
        }
        self.consensuses_built += 1
        return Consensus(valid_after=int(now), entries=tuple(admitted))
