"""The HSDir fingerprint ring.

Relays carrying the ``HSDir`` flag form a ring ordered by their 160-bit
fingerprints.  A descriptor with ID *d* is stored on the first
``HSDIRS_PER_REPLICA`` (3) relays whose fingerprints *follow* *d* on the
ring, wrapping around at 2**160.  With two replicas a service therefore has
six responsible directories per time period.

The ring-distance between a responsible relay's fingerprint and the
descriptor ID is the paper's Section VII positioning statistic: an honest
relay's distance is on the order of ``2**160 / N`` while a tracker that
ground a key to land just past the descriptor ID shows a distance thousands
of times smaller.
"""

from __future__ import annotations

import bisect
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.keys import Fingerprint, fingerprint_int
from repro.errors import CryptoError

RING_SIZE = 1 << 160  # SHA-1 output space

HSDIRS_PER_REPLICA = 3

def ring_distance(from_point: int, to_point: int) -> int:
    """Clockwise distance from ``from_point`` to ``to_point`` on the ring."""
    return (to_point - from_point) % RING_SIZE


def responsible_positions(
    descriptor_point: int, sorted_points: Sequence[int], count: int = HSDIRS_PER_REPLICA
) -> List[int]:
    """The ``count`` ring positions that follow ``descriptor_point``.

    ``sorted_points`` must be sorted ascending and duplicate-free.  Fewer than
    ``count`` positions are returned only when the ring itself is smaller.
    """
    if not sorted_points:
        return []
    take = min(count, len(sorted_points))
    start = bisect.bisect_right(sorted_points, descriptor_point)
    return [sorted_points[(start + i) % len(sorted_points)] for i in range(take)]


def responsible_positions_batch(
    descriptor_points: Sequence[int],
    sorted_points: Sequence[int],
    count: int = HSDIRS_PER_REPLICA,
) -> List[List[int]]:
    """Batched :func:`responsible_positions` over many descriptor points.

    The SHA-1 ring-placement hot-path kernel: one ``bisect_right`` per
    query (:func:`ring_start_indices`), then one C-level slice of the ring
    extended past its wrap point, so a successor run that wraps needs no
    modulo loop.  Element *i* equals
    ``responsible_positions(descriptor_points[i], sorted_points, count)``.
    """
    points = list(sorted_points)
    take = min(count, len(points))
    wrapped = points + points[:take]
    return [
        wrapped[start : start + take]
        for start in ring_start_indices(descriptor_points, points)
    ]


def ring_start_indices(
    descriptor_points: Sequence[int], sorted_points: Sequence[int]
) -> List[int]:
    """``bisect_right(sorted_points, q)`` for every query.

    The shared first half of every placement query: the index where each
    descriptor point's successor run starts (``len(sorted_points)`` means
    "wraps to index 0").
    """
    return [bisect.bisect_right(sorted_points, q) for q in descriptor_points]


#: Entries one ring's :meth:`FingerprintRing.responsible_for` memo holds
#: before it starts over (under a megabyte).  Most misses are first asks:
#: a table2 sweep at scale 0.25 fills a ring's memo to ~7k entries, and
#: this bound costs it 3 extra misses out of ~42k.
LOOKUP_MEMO_LIMIT = 1 << 12


class FingerprintRing:
    """An immutable snapshot of the HSDir ring for one consensus.

    Maps ring positions back to fingerprints and answers the two queries the
    study needs: *which relays are responsible for this descriptor ID* and
    *how tightly is this relay positioned against this descriptor ID*.

    :meth:`derive` builds the next consensus's ring from this one plus the
    membership diff (or returns this very ring when nothing changed), so an
    hourly consensus pays for the relays that joined and left, not for the
    whole ring.  A fresh ``FingerprintRing(fps)`` is its oracle.
    """

    #: The one ring whose lookup memo is alive.  Querying another ring drops
    #: it, so a long consensus history never holds more than one memo; the
    #: reference is weak, so the memo never outlives its ring.
    _memo_owner: Callable[[], Optional["FingerprintRing"]] = staticmethod(
        lambda: None
    )

    def __init__(self, fingerprints: Sequence[Fingerprint]) -> None:
        # 20-byte big-endian fingerprints sort identically as bytes and as
        # 160-bit integers, so deduplicate and order on the raw bytes (one
        # C-level sort) before paying the int conversion per unique member.
        unique = sorted(set(fingerprints))
        by_position: Dict[int, Fingerprint] = {}
        positions: List[int] = []
        for fp in unique:
            position = fingerprint_int(fp)
            if positions and positions[-1] == position:
                raise CryptoError("distinct fingerprints with equal ring position")
            positions.append(position)
            by_position[position] = fp
        self._init(tuple(positions), by_position)

    def _init(
        self, positions: Tuple[int, ...], by_position: Dict[int, Fingerprint]
    ) -> None:
        self._positions = positions
        self._by_position = by_position
        self._memo: Optional[Dict[bytes, Tuple[Fingerprint, ...]]] = None

    def derive(self, fingerprints: Iterable[Fingerprint]) -> "FingerprintRing":
        """The ring of ``fingerprints``, built from this ring's members.

        Returns ``self`` when the members are the same (a ring is
        immutable, so consecutive consensuses share it, lookup memo
        included); otherwise only the joined fingerprints pay the int
        conversion, and the positions are merged rather than re-sorted.
        Equal to ``FingerprintRing(fingerprints)`` in every query, the
        equal-position :class:`CryptoError` included.
        """
        members = set(fingerprints)
        own = set(self._by_position.values())
        if members == own:
            return self
        left = own - members
        by_position = dict(self._by_position)
        if left:
            gone = {int.from_bytes(fp, "big") for fp in left}
            for position in gone:
                del by_position[position]
            positions = [p for p in self._positions if p not in gone]
        else:
            positions = list(self._positions)
        joined = sorted(members - own)
        for fp in joined:
            position = fingerprint_int(fp)
            if position in by_position:
                raise CryptoError("distinct fingerprints with equal ring position")
            by_position[position] = fp
            positions.append(position)
        if joined:
            positions.sort()  # two sorted runs: a linear merge
        ring = FingerprintRing.__new__(FingerprintRing)
        ring._init(tuple(positions), by_position)
        return ring

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, fp: Fingerprint) -> bool:
        return fingerprint_int(fp) in self._by_position

    @property
    def positions(self) -> Tuple[int, ...]:
        """All ring positions, ascending (shared, read-only)."""
        return self._positions

    @property
    def fingerprints(self) -> List[Fingerprint]:
        """All fingerprints in ring order."""
        return [self._by_position[p] for p in self._positions]

    def same_members(self, other: "FingerprintRing") -> bool:
        """Whether ``other`` holds exactly this ring's fingerprints, so that
        every placement on one equals the placement on the other."""
        return self is other or self._positions == other._positions

    def responsible_for(
        self, descriptor_id: bytes, count: int = HSDIRS_PER_REPLICA
    ) -> List[Fingerprint]:
        """The ``count`` relays responsible for ``descriptor_id`` (one replica).

        Answers for the default ``count`` are memoised per descriptor ID
        (clients ask for the same IDs over and over within an hour, and a
        ring lives as long as its membership); the caller always gets a
        fresh list.  The memo holds at most :data:`LOOKUP_MEMO_LIMIT`
        entries and only the most recently queried ring keeps one.
        """
        if count != HSDIRS_PER_REPLICA:
            return self._lookup(descriptor_id, count)
        memo = self._memo
        if memo is None:
            memo = self._claim_memo()
        found = memo.get(descriptor_id)
        if found is None:
            if len(memo) >= LOOKUP_MEMO_LIMIT:
                memo.clear()
            found = tuple(self._lookup(descriptor_id, count))
            memo[descriptor_id] = found
        return list(found)

    def _lookup(self, descriptor_id: bytes, count: int) -> List[Fingerprint]:
        point = int.from_bytes(descriptor_id, "big")
        positions = responsible_positions(point, self._positions, count)
        return [self._by_position[p] for p in positions]

    def _claim_memo(self) -> Dict[bytes, Tuple[Fingerprint, ...]]:
        owner = FingerprintRing._memo_owner()
        if owner is not None:
            owner._memo = None
        FingerprintRing._memo_owner = weakref.ref(self)
        memo: Dict[bytes, Tuple[Fingerprint, ...]] = {}
        self._memo = memo
        return memo

    def responsible_for_many(
        self,
        descriptor_ids: Sequence[bytes],
        count: int = HSDIRS_PER_REPLICA,
    ) -> List[List[Fingerprint]]:
        """Batched :meth:`responsible_for`: one fingerprint list per ID.

        Element *i* is byte-identical to ``responsible_for(descriptor_ids[i],
        count)``; the batch only changes throughput (no memo traffic, and a
        slice per ID instead of a modulo loop).
        """
        points = [int.from_bytes(desc, "big") for desc in descriptor_ids]
        resolve = self._by_position.__getitem__
        return [
            list(map(resolve, positions))
            for positions in responsible_positions_batch(
                points, self._positions, count
            )
        ]

    def distance_to(self, descriptor_id: bytes, fp: Fingerprint) -> int:
        """Clockwise ring distance from ``descriptor_id`` to ``fp``."""
        return ring_distance(
            int.from_bytes(descriptor_id, "big"), fingerprint_int(fp)
        )

    def average_gap(self) -> int:
        """Mean clockwise gap between consecutive ring members.

        For *n* members the gaps around the ring sum to exactly ``RING_SIZE``
        (each arc is counted once), so the average gap is ``RING_SIZE // n``.
        This is the ``avg_dist`` numerator of the paper's positioning ratio.
        """
        if not self._positions:
            raise CryptoError("empty ring has no average gap")
        return RING_SIZE // len(self._positions)

    def positioning_ratio(self, descriptor_id: bytes, fp: Fingerprint) -> float:
        """``avg_dist / distance`` — the Section VII suspicion statistic.

        Honest relays score around 1; the paper flags trackers whose ratio
        exceeds ~100 and observed one episode crossing 10,000.
        """
        distance = self.distance_to(descriptor_id, fp)
        if distance == 0:
            return float("inf")
        return self.average_gap() / distance
