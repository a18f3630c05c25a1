"""Ring-coverage analytics for the trawl.

Quantifies the two claims framing Section II:

* *Without* the shadowing flaw, an attacker limited to two consensus relays
  per IP must interleave enough relays that every descriptor ID has an
  attacker among its three following HSDirs — an attacker needs at least
  half as many relays as there are honest HSDirs, i.e. **> 300 IP
  addresses** at the 2013 ring size (footnote 3 of the paper).
* *With* the flaw, 58 IPs running shadow fleets sweep the ring within a
  day: each rotation wave drops ~2·n fresh relays onto new ring positions,
  and capture probabilities compound across waves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Set

from repro.crypto.descriptor_id import REPLICAS
from repro.crypto.ring import HSDIRS_PER_REPLICA
from repro.errors import AttackError


def naive_ip_requirement(
    honest_hsdir_count: int,
    relays_per_ip: int = 2,
    hsdirs_per_replica: int = HSDIRS_PER_REPLICA,
) -> int:
    """IP addresses needed to cover the whole ring *without* shadowing.

    Guaranteed capture of every descriptor requires an attacker relay in
    every window of ``hsdirs_per_replica`` consecutive ring members.  With
    attacker relays interleaved every ``hsdirs_per_replica - 1`` honest
    relays, the attacker needs ``H / (hsdirs_per_replica - 1)`` relays for
    ``H`` honest HSDirs, i.e. ``H / 2`` at the protocol's 3-per-replica —
    over 600 relays / 300 IPs at the 2013 ring size, matching the paper.

    >>> naive_ip_requirement(1200)
    300
    """
    if honest_hsdir_count < 0:
        raise AttackError(f"negative ring size: {honest_hsdir_count}")
    if relays_per_ip < 1 or hsdirs_per_replica < 2:
        raise AttackError("degenerate parameters")
    relays_needed = math.ceil(honest_hsdir_count / (hsdirs_per_replica - 1))
    return math.ceil(relays_needed / relays_per_ip)


def expected_capture_probability(
    attacker_listed: int,
    total_hsdirs: int,
    waves: int = 1,
    replicas: int = REPLICAS,
    hsdirs_per_replica: int = HSDIRS_PER_REPLICA,
) -> float:
    """Probability one service's descriptors are captured within ``waves``.

    Each attacker relay is responsible for descriptor IDs falling in the
    ``hsdirs_per_replica`` ring gaps preceding it, so one wave of ``A``
    listed relays out of ``N`` HSDirs captures a given replica with
    probability ≈ ``min(1, 3A/N)``; replicas and waves are independent
    (fresh fingerprints land on fresh positions).
    """
    if total_hsdirs <= 0:
        raise AttackError("ring is empty")
    if attacker_listed < 0 or waves < 0:
        raise AttackError("negative attacker parameters")
    per_replica = min(1.0, hsdirs_per_replica * attacker_listed / total_hsdirs)
    miss_one_wave = (1.0 - per_replica) ** replicas
    return 1.0 - miss_one_wave**waves


@dataclass
class CoverageTracker:
    """Tracks which ring segments the attack has swept so far.

    Ring positions are tracked as the attacker fingerprints that have been
    responsible at some point; analytic coverage uses
    :func:`expected_capture_probability` while this tracker reports the
    realised sweep.
    """

    total_hsdirs: int = 0
    positions_swept: Set[int] = field(default_factory=set)
    waves_completed: int = 0

    def record_wave(self, attacker_positions: Set[int], total_hsdirs: int) -> None:
        """Account one rotation wave."""
        self.positions_swept |= attacker_positions
        self.total_hsdirs = total_hsdirs
        self.waves_completed += 1
