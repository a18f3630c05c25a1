"""Digest-faithful Tor v2 hidden-service cryptography.

Onion addresses, descriptor identifiers, and the HSDir fingerprint ring are
implemented exactly as in Tor's rend-spec v2 (SHA-1 digests, base32
addresses, two replicas, daily rotation offset by the first identity byte).
Key *signing* is out of scope — no analysed mechanism in the paper depends on
signature verification, only on digests of key material — so key pairs are
opaque random blobs with real SHA-1 fingerprints.
"""
