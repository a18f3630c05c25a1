"""Directory authorities: flag voting and consensus building.

The authorities observe every advertised relay (including *shadow* relays
that never make it into the consensus), accrue uptime, assign flags — HSDir
after 25 hours — and publish consensuses subject to the two-relays-per-IP
rule.
"""
