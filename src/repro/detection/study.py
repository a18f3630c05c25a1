"""The Silk Road study's parameters (Section VII).

Kept apart from :mod:`repro.detection.silkroad`, which builds the world:
a stage key needs only these parameters, so a replayed study loads no
simulator code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AttackError
from repro.sim.clock import Timestamp, parse_date

SILKROAD_LAUNCH = parse_date("2011-02-01")
STUDY_END = parse_date("2013-10-31")


@dataclass(frozen=True)
class SilkroadStudyConfig:
    """Study parameters (defaults reproduce the paper's setting)."""

    start: Timestamp = SILKROAD_LAUNCH
    end: Timestamp = STUDY_END
    hsdir_start_count: int = 757
    hsdir_end_count: int = 1862
    seed: int = 0
    scale: float = 1.0  # scales the honest relay population
    period_death_probability: float = 0.0006
    period_rotation_probability: float = 0.00005
    inject_year1_oddity: bool = True
    inject_our_trackers: bool = True
    inject_may_episode: bool = True
    inject_aug_episode: bool = True

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise AttackError(f"scale must be positive: {self.scale}")
        if self.hsdir_start_count * self.scale < 20:
            raise AttackError("ring too small for a meaningful study")
