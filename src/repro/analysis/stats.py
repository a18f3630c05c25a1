"""Small statistics helpers for comparing measured vs published values."""

from __future__ import annotations

from typing import Dict

from repro.errors import ReproError


def relative_error(measured: float, expected: float) -> float:
    """|measured - expected| / |expected| (0 when both are zero).

    >>> relative_error(110, 100)
    0.1
    """
    if expected == 0:
        return 0.0 if measured == 0 else float("inf")
    return abs(measured - expected) / abs(expected)


def l1_distance(
    left: Dict[str, float], right: Dict[str, float]
) -> float:
    """Total variation-style distance between two share tables.

    Keys missing from either side count as zero on that side.

    >>> l1_distance({"a": 0.6, "b": 0.4}, {"a": 0.5, "b": 0.5})
    0.2
    """
    keys = set(left) | set(right)
    return sum(abs(left.get(k, 0.0) - right.get(k, 0.0)) for k in keys)


def share_table(counts: Dict[str, int]) -> Dict[str, float]:
    """Normalise a count table into shares summing to 1."""
    total = sum(counts.values())
    if total < 0:
        raise ReproError("negative total in share table")
    if total == 0:
        return {key: 0.0 for key in counts}
    return {key: value / total for key, value in counts.items()}
