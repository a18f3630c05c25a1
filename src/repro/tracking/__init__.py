"""Opportunistic deanonymisation of hidden-service clients (Section VI)."""
