"""Tor relay model: identity, flags, uptime and reachability accounting."""
