"""Entry-guard management.

A client keeps a set of three guard relays chosen from the consensus
(bandwidth-weighted among Guard-flagged relays); every circuit's first hop is
one of them.  A guard expires after a random 30–60 days, and new guards are
chosen whenever fewer than two in the set are reachable (Section II.B).

The guard mechanism bounds the client-deanonymisation attack of Section VI:
the attacker only learns a client's IP when the client's *chosen guard* for
the fetch circuit is attacker-controlled, so the success probability is
roughly the attacker's share of guard bandwidth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.crypto.keys import Fingerprint
from repro.dirauth.consensus import Consensus
from repro.errors import SimulationError
from repro.sim.clock import DAY, Timestamp

GUARD_SET_SIZE = 3
GUARD_LIFETIME_MIN = 30 * DAY
GUARD_LIFETIME_MAX = 60 * DAY


@dataclass
class GuardSlot:
    """One guard in the set with its expiry."""

    fingerprint: Fingerprint
    expires_at: Timestamp


class GuardSet:
    """The three entry guards of one client."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._slots: List[GuardSlot] = []

    @property
    def fingerprints(self) -> List[Fingerprint]:
        """Current guard fingerprints."""
        return [slot.fingerprint for slot in self._slots]

    def refresh(self, consensus: Consensus, now: Timestamp) -> None:
        """Expire old guards, drop vanished ones, and refill to three.

        Guards that left the consensus are treated as unreachable; per the
        Tor behaviour the paper describes, replacements are drawn whenever
        fewer than two reachable guards remain — we refill to the full set,
        which subsumes that rule and keeps selection simple.
        """
        self._slots = [
            slot
            for slot in self._slots
            if slot.expires_at > now and consensus.entry_for(slot.fingerprint) is not None
        ]
        candidates = dict(consensus.guard_weights)
        have = {slot.fingerprint for slot in self._slots}
        while len(self._slots) < GUARD_SET_SIZE and candidates:
            pick = self._weighted_pick(candidates)
            if pick in have:
                candidates.pop(pick, None)
                continue
            have.add(pick)
            candidates.pop(pick, None)
            lifetime = self._rng.randint(GUARD_LIFETIME_MIN, GUARD_LIFETIME_MAX)
            self._slots.append(
                GuardSlot(fingerprint=pick, expires_at=int(now) + lifetime)
            )

    def pick(self) -> Fingerprint:
        """Choose the guard for the next circuit (uniform over the set)."""
        if not self._slots:
            raise SimulationError("guard set is empty; call refresh first")
        return self._rng.choice(self._slots).fingerprint

    def _weighted_pick(self, candidates: Dict[Fingerprint, int]) -> Optional[Fingerprint]:
        if not candidates:
            return None
        fingerprints = list(candidates)
        weights = list(candidates.values())
        return self._rng.choices(fingerprints, weights=weights, k=1)[0]
