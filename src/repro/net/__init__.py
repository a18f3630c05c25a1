"""Simulated network substrate.

Provides IPv4 address allocation, service endpoints with connection
behaviours (open / refused / timeout / the Skynet abnormal error), a
simulated Tor transport that the scanner and crawler drive, and a synthetic
GeoIP database for the client-deanonymisation geography (Fig 3).
"""
