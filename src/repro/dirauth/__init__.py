"""Directory authorities: flag voting, consensus building, history archive.

The authorities observe every advertised relay (including *shadow* relays
that never make it into the consensus), accrue uptime, assign flags — HSDir
after 25 hours — and publish consensuses subject to the two-relays-per-IP
rule.  The consensus archive retains history for the Section VII
tracking-detection analysis.
"""
