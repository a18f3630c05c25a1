"""Reporting and statistics helpers shared by the experiments."""
