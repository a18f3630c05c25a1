"""Responsible-HSDir computation over a consensus.

For each of the two replica descriptor IDs, the three HSDir-flagged relays
whose fingerprints follow the ID on the ring are responsible — six
directories per service per 24-hour period.  "The expression to compute next
responsible HS directories is deterministic and an attacker can easily
inject relays" (Section II, footnote 2): both the honest publish path and
every attack in the paper call exactly this function.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.crypto.descriptor_id import (
    REPLICAS,
    DescriptorId,
    descriptor_id,
    descriptor_ids_for_day_batch,
)
from repro.crypto.keys import Fingerprint
from repro.crypto.onion import OnionAddress
from repro.crypto.ring import HSDIRS_PER_REPLICA
from repro.dirauth.consensus import Consensus
from repro.sim.clock import Timestamp


def responsible_for_replica(
    consensus: Consensus,
    onion: OnionAddress,
    now: Timestamp,
    replica: int,
    count: int = HSDIRS_PER_REPLICA,
) -> List[Fingerprint]:
    """Fingerprints responsible for one replica of ``onion`` at ``now``."""
    desc_id = descriptor_id(onion, now, replica)
    return consensus.hsdir_ring.responsible_for(desc_id, count)


def responsible_hsdirs(
    consensus: Consensus,
    onion: OnionAddress,
    now: Timestamp,
    count: int = HSDIRS_PER_REPLICA,
) -> List[Fingerprint]:
    """All responsible fingerprints for ``onion`` at ``now``, both replicas.

    The result preserves replica order and may contain duplicates only when
    the ring is tiny (fewer members than ``REPLICAS * count``); real-world
    rings never collide, and callers that need a set can deduplicate.
    """
    result: List[Fingerprint] = []
    for replica in range(REPLICAS):
        result.extend(responsible_for_replica(consensus, onion, now, replica, count))
    return result


def responsible_replica_lists_batch(
    consensus: Consensus,
    onions: Sequence[OnionAddress],
    now: Timestamp,
    count: int = HSDIRS_PER_REPLICA,
) -> List[List[List[Fingerprint]]]:
    """Per-replica responsible fingerprints for many onions in one pass.

    Element ``[i][replica]`` is byte-identical to
    ``responsible_for_replica(consensus, onions[i], now, replica, count)``;
    the batch derives every descriptor ID through the shared secret-part
    table and places all of them with one vectorised ring bisect.
    """
    return responsible_replica_lists_for_ids(
        consensus, descriptor_ids_for_day_batch(onions, now), count
    )


def responsible_replica_lists_for_ids(
    consensus: Consensus,
    id_lists: Sequence[Sequence[DescriptorId]],
    count: int = HSDIRS_PER_REPLICA,
) -> List[List[List[Fingerprint]]]:
    """Per-replica responsible fingerprints for already derived descriptor IDs.

    ``id_lists[i]`` holds one onion's per-replica IDs, as
    :func:`~repro.crypto.descriptor_id.descriptor_ids_for_day_batch` returns
    them; element ``[i][replica]`` places ``id_lists[i][replica]``, and all
    of them are placed with one vectorised ring bisect.
    """
    flat = [desc_id for ids in id_lists for desc_id in ids]
    placed = consensus.hsdir_ring.responsible_for_many(flat, count)
    return [
        placed[i * REPLICAS : (i + 1) * REPLICAS] for i in range(len(id_lists))
    ]
