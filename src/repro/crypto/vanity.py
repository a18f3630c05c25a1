"""Vanity onion addresses (shallot/scallion-style grinding).

Section IV: "we noticed that 15 of them had prefix 'silkroa' ... At least
one of these addresses is a phishing site imitating the real Silk Road
login interface."  Such look-alike addresses are produced by brute-forcing
key pairs until the SHA-1-derived address starts with the wanted string —
each extra base32 character multiplies the expected work by 32.

The grinder here is the real loop (hash, check, retry); the population
generator uses short prefixes so the paper's phishing-clone phenomenon is
reproduced with honest computation at simulator-friendly cost.  It checks
each candidate's SHA-1 digest against the prefix's bits directly — the
address is the base32 encoding of that digest, so its first ``n``
characters are the digest's top ``5n`` bits — and builds a key pair only
for the winner.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional

from repro.crypto.keys import KEY_BLOB_LEN, KeyPair
from repro.errors import CryptoError

# The base32 alphabet onion labels are drawn from.
_BASE32_ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"


def expected_attempts(prefix: str) -> int:
    """Mean number of candidate keys to grind for ``prefix``.

    >>> expected_attempts("sil")
    32768
    """
    _check_prefix(prefix)
    return 32 ** len(prefix)


def grind_vanity_onion(
    prefix: str,
    rng: random.Random,
    max_attempts: Optional[int] = None,
) -> KeyPair:
    """Brute-force a key pair whose onion address starts with ``prefix``.

    ``max_attempts`` defaults to 50× the expected work, which fails with
    probability e^-50; pass a smaller cap to bound worst-case time.
    """
    _check_prefix(prefix)
    if max_attempts is None:
        max_attempts = 50 * expected_attempts(prefix)
    if max_attempts < 1:
        raise CryptoError(f"max_attempts must be positive: {max_attempts}")
    # The prefix as an integer of 5 bits per character, compared with the
    # top bits of the digest's first 4 bytes (a prefix is at most 30 bits).
    target = 0
    for char in prefix:
        target = (target << 5) | _BASE32_ALPHABET.index(char)
    shift = 32 - 5 * len(prefix)
    sha1 = hashlib.sha1
    for _ in range(max_attempts):
        der = rng.randbytes(KEY_BLOB_LEN)
        if int.from_bytes(sha1(der).digest()[:4], "big") >> shift == target:
            return KeyPair(public_der=der)
    raise CryptoError(
        f"no onion with prefix {prefix!r} after {max_attempts} attempts"
    )


def _check_prefix(prefix: str) -> None:
    if not prefix:
        raise CryptoError("vanity prefix must be non-empty")
    if len(prefix) > 6:
        raise CryptoError(
            f"prefix {prefix!r} needs ~32^{len(prefix)} hashes — beyond the "
            "simulator's budget (real attackers use GPU grinders)"
        )
    bad = [ch for ch in prefix if ch not in _BASE32_ALPHABET]
    if bad:
        raise CryptoError(f"characters not in the base32 alphabet: {bad}")
