"""Popularity measurement (Section V)."""
