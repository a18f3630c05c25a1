"""Seeded random-number-generator derivation.

Experiments take a single integer ``seed``; every component derives its own
independent :class:`random.Random` stream from that seed plus a string path
(e.g. ``derive_rng(7, "population", "skynet")``).  Independent streams mean
adding randomness to one component never perturbs another component's draws,
which keeps regression expectations stable as the library grows.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(seed: int, *path: str) -> int:
    """Derive a child seed from a parent seed and a string path.

    The derivation hashes ``seed`` together with each path element, so
    ``derive_seed(7, "a", "b")`` and ``derive_seed(7, "a/b")`` differ and the
    mapping is stable across processes and Python versions.
    """
    digest = hashlib.sha256()
    digest.update(str(int(seed)).encode("ascii"))
    for element in path:
        digest.update(b"\x00")
        digest.update(element.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def derive_rng(seed: int, *path: str) -> random.Random:
    """Return an independent :class:`random.Random` for ``(seed, path)``."""
    return random.Random(derive_seed(seed, *path))


def split_rng(rng: random.Random, *path: str) -> random.Random:
    """Split an independent child stream off an existing generator.

    Draws 64 bits from ``rng`` — advancing the parent by exactly one draw
    regardless of ``path`` — and hashes them together with ``path``, so two
    splits at the same parent state but with different paths yield
    uncorrelated streams.  This is the one sanctioned way to fork a stream
    mid-flight; ad-hoc ``random.Random(rng.getrandbits(64))`` re-seeding is
    rejected by source check REP002 (in ``tests/test_source_checks.py``).
    """
    return derive_rng(rng.getrandbits(64), *path)
