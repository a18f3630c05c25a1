"""Tracking detection via consensus-history analysis (Section VII)."""
