"""Consensus history archive.

Section VII analyses roughly three years of consensus history to find relays
that positioned themselves as Silk Road's responsible HSDirs.  The archive
stores snapshots in time order and answers the queries the analyzer needs:
the consensus in force at a time, the first appearance of a fingerprint, and
iteration over descriptor time periods.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Tuple

from repro.crypto.keys import Fingerprint
from repro.dirauth.consensus import Consensus
from repro.errors import ConsensusError
from repro.sim.clock import Timestamp


class ConsensusArchive:
    """An append-only, time-ordered collection of consensuses."""

    def __init__(self) -> None:
        self._consensuses: List[Consensus] = []
        self._times: List[Timestamp] = []
        self._first_seen: Dict[Fingerprint, Timestamp] = {}

    def append(self, consensus: Consensus) -> None:
        """Add a consensus; must be strictly newer than the last one."""
        if self._times and consensus.valid_after <= self._times[-1]:
            raise ConsensusError(
                f"consensus at {consensus.valid_after} not newer than "
                f"archive tail {self._times[-1]}"
            )
        self._consensuses.append(consensus)
        self._times.append(consensus.valid_after)
        first_seen = self._first_seen
        for fingerprint in consensus.fingerprint_index.keys() - first_seen.keys():
            first_seen[fingerprint] = consensus.valid_after

    def __len__(self) -> int:
        return len(self._consensuses)

    def __iter__(self) -> Iterator[Consensus]:
        return iter(self._consensuses)

    @property
    def span(self) -> Tuple[Timestamp, Timestamp]:
        """(first, last) valid_after times in the archive."""
        if not self._times:
            raise ConsensusError("archive is empty")
        return self._times[0], self._times[-1]

    def at(self, ts: Timestamp) -> Optional[Consensus]:
        """The consensus in force at ``ts`` (latest with valid_after <= ts)."""
        index = bisect.bisect_right(self._times, int(ts)) - 1
        if index < 0:
            return None
        return self._consensuses[index]

    def between(self, start: Timestamp, end: Timestamp) -> List[Consensus]:
        """All consensuses with ``start <= valid_after <= end``."""
        lo = bisect.bisect_left(self._times, int(start))
        hi = bisect.bisect_right(self._times, int(end))
        return self._consensuses[lo:hi]

    def first_seen(self, fingerprint: Fingerprint) -> Optional[Timestamp]:
        """When ``fingerprint`` first appeared in any archived consensus."""
        return self._first_seen.get(fingerprint)
