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
or reaches its next flag threshold, and a consensus is the previous one plus
the admissions that changed, its HSDir ring derived from the previous ring.
:func:`build_consensus_scratch`, which flags and admits every relay afresh,
is kept as the reference the reuse is tested against.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.crypto.keys import Fingerprint
from repro.crypto.ring import FingerprintRing
from repro.dirauth.consensus import (
    MAX_RELAYS_PER_IP,
    Consensus,
    ConsensusEntry,
    apply_per_ip_limit,
)
from repro.dirauth.voting import FlagPolicy
from repro.errors import ConsensusError
from repro.net.address import IPv4
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
        self._forget_last_build()

    def _forget_last_build(self) -> None:
        """Drop the previous build, so the next one starts from nothing."""
        self._last: Optional[Consensus] = None
        # The last build's candidates (relay_id -> entry, in candidate
        # order) and its HSDir members.
        self._candidates: Dict[int, ConsensusEntry] = {}
        self._hsdirs: Set[Fingerprint] = set()

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
        fingerprint, as in real consensus documents.  The result equals
        :func:`build_consensus_scratch` entry for entry.

        Each build pays for what changed since the previous one:

        * a relay's entry is reused from the build that computed it while
          the relay's ``state_version`` has not moved and ``now`` lies
          between that build and the relay's next flag threshold;
        * only the IPs whose candidate entries came, went or changed are
          ranked again;
        * when that admits exactly the previous entries, the entries tuple,
          fingerprint index and HSDir ring are shared outright; otherwise
          they are the previous ones plus the admitted entries that came
          and went, the ring derived from the previous ring.
        """
        when = int(now)
        policy = self.policy
        cache = self._entries
        previous = self._candidates
        current: Dict[int, ConsensusEntry] = {}
        changed: List[int] = []
        for relay in self._relays.values():
            if not relay.reachable:
                continue
            relay_id = relay.relay_id
            cached = cache.get(relay_id)
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
                cache[relay_id] = (
                    relay.state_version,
                    when,
                    policy.next_flag_change(relay, now),
                    entry,
                )
            if entry is not None:
                current[relay_id] = entry
                if previous.get(relay_id) is not entry:
                    changed.append(relay_id)
        try:
            consensus = self._apply_changes(when, current, changed)
        except ConsensusError:
            self._forget_last_build()
            raise
        self._last = consensus
        self.consensuses_built += 1
        return consensus

    def _apply_changes(
        self, when: int, current: Dict[int, ConsensusEntry], changed: List[int]
    ) -> Consensus:
        """Re-rank the IPs whose candidates changed and publish the result."""
        last = self._last
        previous = self._candidates
        self._candidates = current
        touched: Set[IPv4] = {current[relay_id].ip for relay_id in changed}
        for relay_id in changed:
            old = previous.get(relay_id)
            if old is not None:
                touched.add(old.ip)
        for relay_id in previous.keys() - current.keys():
            touched.add(previous[relay_id].ip)
        if last is not None and not touched:
            return Consensus.assemble(
                when, last.entries, last.fingerprint_index, last.hsdir_ring
            )

        # apply_per_ip_limit on the touched IPs only: each keeps its top
        # (-bandwidth, fingerprint, candidate index) keys.  The index never
        # ties, so the sort never compares the last two fields.
        ranked: Dict[IPv4, List[Tuple]] = {}
        for index, (relay_id, entry) in enumerate(current.items()):
            if entry.ip in touched:
                ranked.setdefault(entry.ip, []).append(
                    (-entry.bandwidth, entry.fingerprint, index, relay_id, entry)
                )
        after: Dict[int, Tuple[int, ConsensusEntry]] = {}
        for group in ranked.values():
            group.sort()
            for *_, relay_id, entry in group[:MAX_RELAYS_PER_IP]:
                after[id(entry)] = (relay_id, entry)
        before = (
            [entry for entry in last.entries if entry.ip in touched]
            if last is not None
            else []
        )
        removed = [entry for entry in before if id(entry) not in after]
        for entry in before:
            after.pop(id(entry), None)
        added = list(after.values())
        if last is not None and not removed and not added:
            return Consensus.assemble(
                when, last.entries, last.fingerprint_index, last.hsdir_ring
            )

        entries = list(last.entries) if last is not None else []
        by_fingerprint = dict(last.fingerprint_index) if last is not None else {}
        admitted = dict(self.admitted) if last is not None else {}
        hsdirs = self._hsdirs
        for entry in removed:
            fingerprint = entry.fingerprint
            del entries[bisect_left(entries, fingerprint, key=_fingerprint_of)]
            del by_fingerprint[fingerprint]
            del admitted[fingerprint]
            if entry.has(RelayFlags.HSDIR):
                hsdirs.discard(fingerprint)
        relays = self._relays
        for relay_id, entry in added:
            fingerprint = entry.fingerprint
            if fingerprint in by_fingerprint:
                raise ConsensusError(
                    f"duplicate fingerprint in consensus: {fingerprint.hex()}"
                )
            insort(entries, entry, key=_fingerprint_of)
            by_fingerprint[fingerprint] = entry
            admitted[fingerprint] = relays[relay_id]
            if entry.has(RelayFlags.HSDIR):
                hsdirs.add(fingerprint)
        ring = (
            FingerprintRing(hsdirs)
            if last is None
            else last.hsdir_ring.derive(hsdirs)
        )
        self.admitted = admitted
        return Consensus.assemble(when, tuple(entries), by_fingerprint, ring)


def _fingerprint_of(entry: ConsensusEntry) -> Fingerprint:
    return entry.fingerprint

