"""Router status flags.

Directory authorities assign flags to relays in every consensus.  Only the
flags that matter to the study are modelled; ``HSDIR`` (assigned after 25
hours of observed uptime) and ``GUARD`` drive the harvesting and client
deanonymisation attacks respectively.

Flags are a bitmask (:class:`enum.IntFlag`) because the tracking-detection
experiment stores roughly three years of consensus history — two descriptor
periods per day across thousands of relays — and one int per relay per
snapshot keeps that history cheap.
"""

from __future__ import annotations

import enum


class RelayFlags(enum.IntFlag):
    """Consensus flags, bitmask-encoded."""

    NONE = 0
    RUNNING = enum.auto()
    VALID = enum.auto()
    FAST = enum.auto()
    STABLE = enum.auto()
    GUARD = enum.auto()
    HSDIR = enum.auto()
    EXIT = enum.auto()
    AUTHORITY = enum.auto()

    def names(self) -> list[str]:
        """Human-readable flag names, consensus-style capitalisation."""
        labels = {
            RelayFlags.RUNNING: "Running",
            RelayFlags.VALID: "Valid",
            RelayFlags.FAST: "Fast",
            RelayFlags.STABLE: "Stable",
            RelayFlags.GUARD: "Guard",
            RelayFlags.HSDIR: "HSDir",
            RelayFlags.EXIT: "Exit",
            RelayFlags.AUTHORITY: "Authority",
        }
        return [label for flag, label in labels.items() if self & flag]


def flags_overlap(flags: RelayFlags, mask: RelayFlags) -> bool:
    """``bool(flags & mask)`` without IntFlag's operator overhead.

    ``IntFlag.__and__`` constructs a new enum member on every call, which
    dominates the consensus-build hot path (one flag test per relay per
    snapshot across a multi-year history).  ``int.__and__`` performs the
    same bit test at C speed and returns a plain int.
    """
    return bool(int.__and__(flags, mask))
