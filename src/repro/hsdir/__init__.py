"""Hidden-service directories.

Relays with the HSDir flag store hidden-service descriptors for 24 hours and
answer client fetches.  The attacker-controlled instances of
:class:`~repro.hsdir.directory.HSDirServer` are the harvest vantage: every
stored descriptor leaks an onion address and every fetch is logged, which is
precisely the data Sections III–V are built on.
"""
