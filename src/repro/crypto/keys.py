"""Identity key pairs and SHA-1 fingerprints.

A Tor relay or hidden service is identified by the SHA-1 digest of its public
key.  Every mechanism the paper analyses — onion addresses, descriptor IDs,
HSDir ring positions, fingerprint-change detection — consumes only that
digest, so the "key" here is an opaque random byte string standing in for the
DER encoding of an RSA-1024 public key.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.errors import CryptoError

Fingerprint = bytes  # 20-byte SHA-1 digest of the public key

FINGERPRINT_LEN = 20
KEY_BLOB_LEN = 140  # approximate DER length of an RSA-1024 public key


def fingerprint_hex(fp: Fingerprint) -> str:
    """Render a fingerprint as the 40-char uppercase hex Tor uses in logs."""
    _check_fingerprint(fp)
    return fp.hex().upper()


def fingerprint_int(fp: Fingerprint) -> int:
    """Interpret a fingerprint as a 160-bit big-endian integer (ring position)."""
    _check_fingerprint(fp)
    return int.from_bytes(fp, "big")


def _check_fingerprint(fp: bytes) -> None:
    if not isinstance(fp, (bytes, bytearray)) or len(fp) != FINGERPRINT_LEN:
        raise CryptoError(f"fingerprint must be {FINGERPRINT_LEN} bytes, got {fp!r}")


@dataclass(frozen=True)
class KeyPair:
    """An identity key pair reduced to the parts the study needs.

    Attributes:
        public_der: stand-in bytes for the DER-encoded public key.
        fingerprint: SHA-1 digest of ``public_der``.
    """

    public_der: bytes
    fingerprint: Fingerprint = field(init=False)

    def __post_init__(self) -> None:
        if not self.public_der:
            raise CryptoError("public key material must be non-empty")
        object.__setattr__(
            self, "fingerprint", hashlib.sha1(self.public_der).digest()
        )

    @classmethod
    def generate(cls, rng: random.Random) -> "KeyPair":
        """Generate a fresh key pair from a seeded RNG stream."""
        return cls(public_der=rng.randbytes(KEY_BLOB_LEN))

    @classmethod
    def generate_with_fingerprint_near(
        cls,
        rng: random.Random,
        target: int,
        max_distance: int,
        attempts: int = 200_000,
    ) -> "KeyPair":
        """Brute-force a key whose fingerprint lands within ``max_distance``
        *after* ``target`` on the 160-bit ring.

        This is exactly the attacker operation from Section VII: trackers
        "changed fingerprints in order to become HSDir" by grinding keys until
        the fingerprint sits just past a predicted descriptor ID.  The search
        is a rejection loop because SHA-1 preimages cannot be steered.
        """
        from repro.crypto.ring import RING_SIZE, ring_distance

        if not 0 < max_distance < RING_SIZE:
            raise CryptoError(f"max_distance out of range: {max_distance}")
        for _ in range(attempts):
            candidate = cls.generate(rng)
            distance = ring_distance(target, fingerprint_int(candidate.fingerprint))
            if 0 < distance <= max_distance:
                return candidate
        raise CryptoError(
            f"no fingerprint within {max_distance} of target after {attempts} attempts"
        )

    @classmethod
    def with_forged_fingerprint(cls, fingerprint: Fingerprint) -> "KeyPair":
        """A key pair whose fingerprint is *chosen* rather than derived.

        Stands in for offline key grinding at strengths impractical to
        brute-force inside the simulator: the Section VII trackers
        positioned fingerprints within 1/10,000 of the average ring gap,
        which costs ~10⁷ SHA-1 candidates per key — trivial for the GPU
        rigs real attackers used (cf. shallot/scallion), but minutes of
        wall-clock here.  Use :meth:`generate_with_fingerprint_near` when
        the target distance is reachable with ≲10⁶ candidates.

        The forged key's ``public_der`` is a placeholder; only relays use
        forged keys, and no analysed mechanism reads a *relay's* key
        material — everything consumes the fingerprint.
        """
        _check_fingerprint(fingerprint)
        forged = cls(public_der=b"forged:" + fingerprint)
        object.__setattr__(forged, "fingerprint", bytes(fingerprint))
        return forged

    @classmethod
    def forge_near(
        cls, rng: random.Random, target: int, max_distance: int
    ) -> "KeyPair":
        """Forge a fingerprint uniformly within ``(target, target + max_distance]``.

        The simulated outcome of a grinding run with acceptance window
        ``max_distance`` (see :meth:`with_forged_fingerprint`).
        """
        from repro.crypto.ring import RING_SIZE

        if not 0 < max_distance < RING_SIZE:
            raise CryptoError(f"max_distance out of range: {max_distance}")
        position = (target + 1 + rng.randrange(max_distance)) % RING_SIZE
        return cls.with_forged_fingerprint(position.to_bytes(20, "big"))

    @property
    def hex_fingerprint(self) -> str:
        """Uppercase hex fingerprint."""
        return fingerprint_hex(self.fingerprint)

    @property
    def ring_position(self) -> int:
        """Fingerprint as a 160-bit integer."""
        return fingerprint_int(self.fingerprint)

    def __repr__(self) -> str:
        return f"KeyPair({self.hex_fingerprint[:8]}…)"
