"""Hidden-service descriptors.

A v2 descriptor carries the service's public key and introduction points,
is identified by a rotating descriptor ID, and is published in two replicas.
The descriptor ID is *not* the onion address — "while the onion address
remains fixed, the descriptor ID changes every 24 hours and is derived from
the onion address" (Section V, footnote 6) — which is why resolving harvested
request logs back to onion addresses requires re-deriving IDs per day.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.crypto.descriptor_id import (
    REPLICAS,
    DescriptorId,
    descriptor_id,
)
from repro.crypto.keys import KeyPair
from repro.crypto.onion import OnionAddress, onion_address_from_key
from repro.errors import DescriptorError
from repro.hsdir.directory import StoredDescriptor
from repro.sim.clock import Timestamp


@dataclass(frozen=True)
class HSDescriptor:
    """One replica of a service's descriptor for one time period."""

    onion: OnionAddress
    descriptor_id: DescriptorId
    replica: int
    public_der: bytes
    published_at: Timestamp

    def verify(self) -> bool:
        """Check internal consistency: the ID must derive from the key.

        A directory (or a harvester) can recompute the expected descriptor
        ID from the embedded public key and the publication time; mismatch
        means a malformed or forged upload.
        """
        derived_onion = onion_address_from_key(self.public_der)
        if derived_onion != self.onion:
            return False
        expected = descriptor_id(self.onion, self.published_at, self.replica)
        return expected == self.descriptor_id

    def to_stored(self) -> StoredDescriptor:
        """Convert to the directory-side representation."""
        return StoredDescriptor(
            descriptor_id=self.descriptor_id,
            public_der=self.public_der,
            replica=self.replica,
            published_at=self.published_at,
        )


def make_descriptors(
    keypair: KeyPair,
    now: Timestamp,
    descriptor_ids: Optional[Sequence[DescriptorId]] = None,
) -> List[HSDescriptor]:
    """Build both replica descriptors for the period containing ``now``.

    ``descriptor_ids`` hands in the period's per-replica IDs when the caller
    already derived them (the publish scheduler keeps them per period).
    """
    if not keypair.public_der:
        raise DescriptorError("descriptor needs key material")
    onion = onion_address_from_key(keypair.public_der)
    if descriptor_ids is None:
        descriptor_ids = [
            descriptor_id(onion, now, replica) for replica in range(REPLICAS)
        ]
    return [
        HSDescriptor(
            onion=onion,
            descriptor_id=descriptor_ids[replica],
            replica=replica,
            public_der=keypair.public_der,
            published_at=int(now),
        )
        for replica in range(REPLICAS)
    ]


def make_stored_descriptors(
    keypair: KeyPair,
    now: Timestamp,
    descriptor_ids: Optional[Sequence[DescriptorId]] = None,
) -> List[StoredDescriptor]:
    """Both replicas as a directory stores them, built directly.

    Element *r* equals ``make_descriptors(...)[r].to_stored()`` and the same
    key-material check applies; the publish path uploads these without
    building the intermediate :class:`HSDescriptor`.
    """
    if not keypair.public_der:
        raise DescriptorError("descriptor needs key material")
    if descriptor_ids is None:
        onion = onion_address_from_key(keypair.public_der)
        descriptor_ids = [
            descriptor_id(onion, now, replica) for replica in range(REPLICAS)
        ]
    published_at = int(now)
    return [
        StoredDescriptor(
            descriptor_id=descriptor_ids[replica],
            public_der=keypair.public_der,
            replica=replica,
            published_at=published_at,
        )
        for replica in range(REPLICAS)
    ]
