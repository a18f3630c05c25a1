"""Tor clients: guard management, descriptor fetching, popularity workload."""
