"""Consensus documents.

A consensus is the authorities' hourly snapshot of admitted relays with
their flags.  Two properties drive the study:

* **Two relays per IP** — when more than two relays advertise from one IP,
  only the two with the highest measured bandwidth are listed.  This is the
  anti-Sybil measure the shadow-relay attack circumvents.
* The set of entries carrying ``HSDir`` defines the fingerprint ring on
  which hidden-service descriptors are placed for that period.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.crypto.keys import Fingerprint
from repro.crypto.ring import FingerprintRing
from repro.errors import ConsensusError
from repro.net.address import IPv4
from repro.relay.flags import RelayFlags, flags_overlap
from repro.sim.clock import Timestamp

MAX_RELAYS_PER_IP = 2


class ConsensusEntry(NamedTuple):
    """One router-status line.

    A NamedTuple rather than a dataclass: the tracking-detection experiment
    retains years of history (thousands of snapshots × hundreds of relays),
    so entries are kept as small as practical.
    """

    fingerprint: Fingerprint
    nickname: str
    ip: IPv4
    or_port: int
    bandwidth: int
    flags: RelayFlags

    @property
    def address(self) -> Tuple[IPv4, int]:
        """The (IP, ORPort) pair — stable across fingerprint changes."""
        return (self.ip, self.or_port)

    def has(self, flag: RelayFlags) -> bool:
        """Whether the entry carries ``flag``."""
        return flags_overlap(self.flags, flag)


@dataclass
class Consensus:
    """An immutable snapshot of the network at ``valid_after``."""

    valid_after: Timestamp
    entries: Tuple[ConsensusEntry, ...]
    _by_fingerprint: Dict[Fingerprint, ConsensusEntry] = field(
        init=False, repr=False, default_factory=dict
    )
    _hsdir_ring: Optional[FingerprintRing] = field(init=False, repr=False, default=None)
    # Built on first use, like the ring: most consensuses (sec7's daily
    # snapshots) are never filtered, so they never carry these.
    _flagged: Optional[Dict[RelayFlags, Tuple[ConsensusEntry, ...]]] = field(
        init=False, repr=False, compare=False, default=None
    )
    _guard_weights: Optional[Dict[Fingerprint, int]] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        by_fp: Dict[Fingerprint, ConsensusEntry] = {}
        for entry in self.entries:
            if entry.fingerprint in by_fp:
                raise ConsensusError(
                    f"duplicate fingerprint in consensus: {entry.fingerprint.hex()}"
                )
            by_fp[entry.fingerprint] = entry
        self._by_fingerprint = by_fp

    @classmethod
    def assemble(
        cls,
        valid_after: Timestamp,
        entries: Tuple[ConsensusEntry, ...],
        fingerprint_index: Dict[Fingerprint, ConsensusEntry],
        hsdir_ring: FingerprintRing,
    ) -> "Consensus":
        """A consensus from parts its builder already derived and checked.

        ``fingerprint_index`` must map each entry's fingerprint to the entry
        and ``hsdir_ring`` hold exactly the HSDir-flagged fingerprints; both
        may be shared with the previous consensus (neither is ever mutated).
        Skips the per-entry index pass of the plain constructor.
        """
        consensus = cls.__new__(cls)
        consensus.valid_after = valid_after
        consensus.entries = entries
        consensus._by_fingerprint = fingerprint_index
        consensus._hsdir_ring = hsdir_ring
        consensus._flagged = None
        consensus._guard_weights = None
        return consensus

    @property
    def fingerprint_index(self) -> Dict[Fingerprint, ConsensusEntry]:
        """Fingerprint -> entry (shared; treat as read-only)."""
        return self._by_fingerprint

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ConsensusEntry]:
        return iter(self.entries)

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return fingerprint in self._by_fingerprint

    def entry_for(self, fingerprint: Fingerprint) -> Optional[ConsensusEntry]:
        """The entry with ``fingerprint``, or None."""
        return self._by_fingerprint.get(fingerprint)

    def with_flag(self, flag: RelayFlags) -> List[ConsensusEntry]:
        """All entries carrying ``flag``, in entry order (a fresh list)."""
        return list(self._entries_with(flag))

    def _entries_with(self, flag: RelayFlags) -> Tuple[ConsensusEntry, ...]:
        if self._flagged is None:
            self._flagged = {}
        entries = self._flagged.get(flag)
        if entries is None:
            entries = tuple(
                entry for entry in self.entries if flags_overlap(entry.flags, flag)
            )
            self._flagged[flag] = entries
        return entries

    @property
    def guard_weights(self) -> Dict[Fingerprint, int]:
        """Guard fingerprint -> selection weight ``max(1, bandwidth)``.

        In entry order, built once per consensus (shared; treat as
        read-only — a client copies it before drawing from it).
        """
        if self._guard_weights is None:
            self._guard_weights = {
                entry.fingerprint: max(1, entry.bandwidth)
                for entry in self._entries_with(RelayFlags.GUARD)
            }
        return self._guard_weights

    @property
    def hsdir_ring(self) -> FingerprintRing:
        """The HSDir fingerprint ring implied by this consensus (cached)."""
        if self._hsdir_ring is None:
            self._hsdir_ring = FingerprintRing(
                [
                    e.fingerprint
                    for e in self.entries
                    if flags_overlap(e.flags, RelayFlags.HSDIR)
                ]
            )
        return self._hsdir_ring

    @property
    def hsdir_count(self) -> int:
        """Number of relays with the HSDir flag."""
        return len(self.hsdir_ring)


def apply_per_ip_limit(
    candidates: List[ConsensusEntry], limit: int = MAX_RELAYS_PER_IP
) -> List[ConsensusEntry]:
    """Enforce the per-IP admission rule.

    Groups candidates by IP and keeps the ``limit`` highest-bandwidth relays
    per address (ties broken by fingerprint for determinism), preserving the
    original relative order of the survivors.

    This is the batched consensus-generation kernel: one streaming pass
    keeping a bounded top-``limit`` bucket per IP replaces a dict of per-IP
    lists each materialised, sorted, and re-filtered — which is what
    hourly-sweep workloads (thousands of consensuses over thousands of
    candidates) spend their time on.  Output is element-identical to
    :func:`apply_per_ip_limit_scalar`, the retained reference
    implementation the equivalence tests pin against.
    """
    if limit < 1:
        raise ConsensusError(f"per-IP limit must be positive: {limit}")
    # One pass, keeping at most ``limit`` (-bandwidth, fingerprint, index)
    # keys per IP in a tiny always-sorted bucket: O(n·limit) with bare-tuple
    # C-level comparisons, instead of materialising, fully sorting, and
    # re-filtering every per-IP group the way the scalar reference does.
    best: Dict[IPv4, List[Tuple[int, Fingerprint, int]]] = {}
    for index, entry in enumerate(candidates):
        key = (-entry.bandwidth, entry.fingerprint, index)
        bucket = best.get(entry.ip)
        if bucket is None:
            best[entry.ip] = [key]
        elif len(bucket) < limit or key < bucket[-1]:
            insort(bucket, key)
            if len(bucket) > limit:
                bucket.pop()
    admitted = sorted(
        index for bucket in best.values() for _, _, index in bucket
    )
    return [candidates[index] for index in admitted]


def apply_per_ip_limit_scalar(
    candidates: List[ConsensusEntry], limit: int = MAX_RELAYS_PER_IP
) -> List[ConsensusEntry]:
    """Scalar reference for :func:`apply_per_ip_limit` (the original loop).

    Kept as the byte-equivalence oracle: the batched kernel must produce
    exactly this output for every input, at every worker count.
    """
    if limit < 1:
        raise ConsensusError(f"per-IP limit must be positive: {limit}")
    by_ip: Dict[IPv4, List[ConsensusEntry]] = {}
    for entry in candidates:
        by_ip.setdefault(entry.ip, []).append(entry)
    admitted: set[Fingerprint] = set()
    for ip_entries in by_ip.values():
        ranked = sorted(
            ip_entries, key=lambda e: (-e.bandwidth, e.fingerprint)
        )
        for entry in ranked[:limit]:
            admitted.add(entry.fingerprint)
    return [entry for entry in candidates if entry.fingerprint in admitted]
