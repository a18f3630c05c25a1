"""The run settings every command shares, resolved and checked once.

The paper reports one measurement campaign, and every ``repro`` command
runs under the same settings: seed, scale, worker count, fault profile,
store directory, metrics path and crash schedule.  :class:`RunConfig`
holds them.  :meth:`RunConfig.resolve` applies a command's fallbacks: an
unset flag reads its environment variable (:data:`ENVIRONMENT`), then the
command's own default.  Construction checks every setting, so a bad value
fails with one :class:`~repro.errors.ConfigError` before any work starts.

This module imports only the standard library and :mod:`repro.errors`,
so resolving a command's settings loads none of the code it runs.  The
library keeps its own checks and its ``$REPRO_WORKERS``/``$REPRO_FAULTS``
fallbacks for callers that never build a ``RunConfig``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.errors import ConfigError

#: The fault and crash profile names, mildest first.
PROFILES = ("none", "light", "moderate", "heavy")

#: Setting -> the environment variable an unset flag falls back to.
ENVIRONMENT = {
    "workers": "REPRO_WORKERS",
    "fault_profile": "REPRO_FAULTS",
    "store_dir": "REPRO_STORE",
    "metrics_path": "REPRO_METRICS",
    "crash_profile": "REPRO_CRASHES",
}


@dataclass(frozen=True)
class RunConfig:
    """The settings one run shares across its stages and experiments."""

    seed: int = 0
    #: World scale; 1.0 is the paper's 39,824 onions.
    scale: float = 1.0
    #: Worker count for every fan-out; any value gives the same bytes.
    workers: int = 1
    fault_profile: str = "none"
    #: Checkpoint store directory; None runs without a store.
    store_dir: Optional[str] = None
    #: Where the metrics/span snapshot goes; None writes none.
    metrics_path: Optional[str] = None
    #: A crash profile name or an explicit ``label@visit,...`` schedule.
    crash_profile: str = "none"

    def __post_init__(self) -> None:
        if not math.isfinite(self.scale) or self.scale <= 0:
            raise ConfigError(f"--scale must be > 0, got {self.scale}")
        if self.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {self.workers}")
        if self.fault_profile not in PROFILES:
            raise ConfigError(
                f"unknown fault profile {self.fault_profile!r}; "
                f"expected one of {', '.join(PROFILES)}"
            )
        _check_crash_profile(self.crash_profile)

    @classmethod
    def resolve(
        cls, settings: Mapping[str, Any], fallbacks: Optional[Mapping[str, Any]] = None
    ) -> "RunConfig":
        """The config of a command that declares ``settings``.

        A setting given as None or ``""`` reads its :data:`ENVIRONMENT`
        variable, then ``fallbacks``, then the field default.  A setting
        left out of ``settings`` takes the field default directly: a
        command without a ``--store`` flag never reads ``$REPRO_STORE``.
        """
        values = {}
        for name, value in settings.items():
            if value is None or value == "":
                raw = os.environ.get(ENVIRONMENT.get(name, ""), "").strip()
                value = raw or (fallbacks or {}).get(name)
                if raw and name == "workers":
                    value = _integer(raw)
                    if value is None:
                        raise ConfigError(
                            f"${ENVIRONMENT[name]} must be an integer, got {raw!r}"
                        )
            if value is not None:
                values[name] = value
        if "fault_profile" in values:
            values["fault_profile"] = values["fault_profile"].strip().lower()
        if "crash_profile" in values:
            values["crash_profile"] = values["crash_profile"].strip()
        return cls(**values)


def _integer(text: str) -> Optional[int]:
    try:
        return int(text)
    except ValueError:
        return None


def _check_crash_profile(spec: str) -> None:
    """A profile name, or ``label@visit,...`` entries with integer visits."""
    if spec.lower() in PROFILES:
        return
    if "@" not in spec and ":" not in spec:
        raise ConfigError(
            f"unknown crash profile {spec!r}; expected one of "
            f"{', '.join(PROFILES)} or a label@visit schedule"
        )
    for token in spec.split(","):
        label, at, visit = token.strip().partition("@")
        if (at and not label) or (visit and _integer(visit) is None):
            raise ConfigError(f"bad crash schedule entry {token.strip()!r}")
