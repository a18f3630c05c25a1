"""The directory-authority set.

Modelled as one logical entity (real Tor has nine authorities that vote; the
voting outcome, not the voting, is what the study depends on).  The
authority set:

* tracks every advertised relay — *including* relays that the per-IP rule
  keeps out of the consensus.  Their uptime still accrues, which is the flaw
  ("statistics on them is collected, including the uptime") behind the
  shadow-relay harvest;
* tests reachability each round;
* assigns flags from the :class:`~repro.dirauth.voting.FlagPolicy`;
* applies the two-per-IP admission rule and publishes a
  :class:`~repro.dirauth.consensus.Consensus`.

Builds are incremental: a relay's entry is reused until the relay changes
or reaches its next flag threshold.  :func:`build_consensus_scratch`, which
flags every relay afresh, is kept as the reference the reuse is tested
against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.crypto.keys import Fingerprint
from repro.dirauth.consensus import (
    Consensus,
    ConsensusEntry,
    apply_per_ip_limit,
)
from repro.dirauth.voting import FlagPolicy
from repro.errors import ConsensusError
from repro.relay.flags import RelayFlags, flags_overlap
from repro.relay.relay import Relay
from repro.sim.clock import Timestamp


def _entry(relay: Relay, flags: RelayFlags) -> ConsensusEntry:
    return ConsensusEntry(
        fingerprint=relay.fingerprint,
        nickname=relay.nickname,
        ip=relay.ip,
        or_port=relay.or_port,
        bandwidth=relay.bandwidth,
        flags=flags,
    )


def _publish(candidates: List[ConsensusEntry], now: Timestamp) -> Consensus:
    """Apply the per-IP limit, then order entries by fingerprint, as in real
    consensus documents."""
    admitted = apply_per_ip_limit(candidates)
    admitted.sort(key=lambda e: e.fingerprint)
    return Consensus(valid_after=int(now), entries=tuple(admitted))


def build_consensus_scratch(
    relays: Iterable[Relay], policy: FlagPolicy, now: Timestamp
) -> Consensus:
    """Flag every reachable relay afresh and publish.

    The reference for :meth:`DirectoryAuthoritySet.build_consensus`: for any
    relay history, its entry reuse must return exactly this consensus.
    """
    candidates: List[ConsensusEntry] = []
    for relay in relays:
        if not relay.reachable:
            continue
        flags = policy.flags_for(relay, now)
        if flags_overlap(flags, RelayFlags.RUNNING):
            candidates.append(_entry(relay, flags))
    return _publish(candidates, now)


class DirectoryAuthoritySet:
    """Registers relays and periodically publishes consensuses.

    ``admitted`` maps every fingerprint of the latest consensus to the relay
    holding it.
    """

    def __init__(self, policy: Optional[FlagPolicy] = None) -> None:
        self.policy = policy if policy is not None else FlagPolicy()
        self._relays: Dict[int, Relay] = {}
        # relay_id -> (relay.state_version, built at, next flag change, entry)
        self._entries: Dict[
            int, Tuple[int, int, float, Optional[ConsensusEntry]]
        ] = {}
        self.admitted: Dict[Fingerprint, Relay] = {}
        self.consensuses_built = 0

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
        """Stop monitoring ``relay`` (operator shut it down permanently)."""
        self._relays.pop(relay.relay_id, None)
        self._entries.pop(relay.relay_id, None)

    @property
    def monitored_relays(self) -> List[Relay]:
        """Every relay the authorities currently track."""
        return list(self._relays.values())

    @property
    def monitored_count(self) -> int:
        """How many relays are tracked (shadow relays included)."""
        return len(self._relays)

    def build_consensus(self, now: Timestamp) -> Consensus:
        """Publish the consensus valid from ``now``.

        Reachable relays are flagged per policy, then the per-IP limit keeps
        the two highest-bandwidth relays per address.  Entries are ordered by
        fingerprint, as in real consensus documents.

        A relay's entry is reused from the build that computed it while the
        relay's ``state_version`` has not moved and ``now`` lies between
        that build and the relay's next flag threshold; otherwise the relay
        is flagged afresh.  The result equals :func:`build_consensus_scratch`
        entry for entry.
        """
        when = int(now)
        policy = self.policy
        cache = self._entries
        candidates: List[ConsensusEntry] = []
        owners: Dict[Fingerprint, Relay] = {}
        for relay in self._relays.values():
            if not relay.reachable:
                continue
            cached = cache.get(relay.relay_id)
            if (
                cached is not None
                and cached[0] == relay.state_version
                and cached[1] <= when < cached[2]
            ):
                entry = cached[3]
            else:
                flags = policy.flags_for(relay, now)
                entry = (
                    _entry(relay, flags)
                    if flags_overlap(flags, RelayFlags.RUNNING)
                    else None
                )
                cache[relay.relay_id] = (
                    relay.state_version,
                    when,
                    policy.next_flag_change(relay, now),
                    entry,
                )
            if entry is not None:
                candidates.append(entry)
                owners[entry.fingerprint] = relay
        consensus = _publish(candidates, now)
        self.admitted = {
            entry.fingerprint: owners[entry.fingerprint] for entry in consensus
        }
        self.consensuses_built += 1
        return consensus
