"""The shadow-relay harvesting attack (Section II).

Runs many relays on few IP addresses, lets them all accrue the 25-hour
HSDir uptime while only two per IP sit in the consensus, then progressively
knocks active relays out so shadow relays rotate in and sweep the HSDir
ring — collecting hidden-service descriptors (onion addresses) and client
request statistics.
"""
