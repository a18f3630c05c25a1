"""Named fault profiles and the ``REPRO_FAULTS`` environment switch.

A *profile* is a named bundle of fault rules at calibrated severities, so
experiments and CI can say "run under moderate faults" without spelling out
rates.  Resolution order mirrors the worker count: explicit argument, then
``$REPRO_FAULTS``, then ``"none"``.

* ``none`` — no rules; the plan is inert and the raw transport is used.
* ``light`` — the background failure level any week-long Tor measurement
  rides through: ~1% circuit timeouts, rare descriptor flaps.
* ``moderate`` — the paper's bad days: 5% timeouts with half-hour burst
  storms every six hours, 2% flaps, occasional truncation.
* ``heavy`` — hostile weather: 15% timeouts with hour-long 50% bursts,
  flaky HSDirs taking 10% of onions out for two hours a day.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.errors import FaultConfigError
from repro.faults.plan import (
    CircuitTimeoutFault,
    DescriptorFlapFault,
    FaultPlan,
    FaultRule,
    HSDirOutageFault,
    SlowCircuitFault,
    TruncationFault,
)
from repro.faults.retry import RetryPolicy
from repro.runconfig import PROFILES

#: Environment variable consulted when no explicit profile is given.
FAULTS_ENV = "REPRO_FAULTS"

_PROFILES: Dict[str, Tuple[FaultRule, ...]] = {
    "none": (),
    "light": (
        CircuitTimeoutFault(rate=0.01),
        DescriptorFlapFault(rate=0.005),
        SlowCircuitFault(rate=0.01, extra_latency=15),
    ),
    "moderate": (
        CircuitTimeoutFault(
            rate=0.05, burst_rate=0.25, burst_period=6 * 3600, burst_length=1800
        ),
        DescriptorFlapFault(rate=0.02),
        TruncationFault(rate=0.02),
        SlowCircuitFault(rate=0.05, extra_latency=30),
    ),
    "heavy": (
        CircuitTimeoutFault(
            rate=0.15, burst_rate=0.5, burst_period=4 * 3600, burst_length=3600
        ),
        DescriptorFlapFault(rate=0.08),
        HSDirOutageFault(affected_fraction=0.1, period=24 * 3600, duration=2 * 3600),
        TruncationFault(rate=0.08),
        SlowCircuitFault(rate=0.15, extra_latency=60),
    ),
}

#: Retry budgets matched to profile severity; ``none`` has no policy.
_RETRY_ATTEMPTS = {"light": 2, "moderate": 3, "heavy": 4}


def resolve_fault_profile(profile: Optional[str] = None) -> str:
    """Effective profile name: explicit argument, else ``$REPRO_FAULTS``, else none."""
    if profile is None:
        profile = os.environ.get(FAULTS_ENV, "").strip() or "none"
    name = profile.strip().lower()
    if name not in _PROFILES:
        raise FaultConfigError(
            f"unknown fault profile {profile!r}; "
            f"expected one of {', '.join(PROFILES)}"
        )
    return name


def build_fault_plan(profile: Optional[str] = None, seed: int = 0) -> FaultPlan:
    """The :class:`FaultPlan` for ``profile`` at ``seed``."""
    name = resolve_fault_profile(profile)
    return FaultPlan(seed=seed, rules=_PROFILES[name], name=name)


def default_retry_policy(
    profile: Optional[str] = None, seed: int = 0
) -> Optional[RetryPolicy]:
    """The retry budget matched to ``profile``; None when faults are off.

    A fault-free run gets no retry layer at all, so the zero-fault pipeline
    is byte-for-byte the pipeline that existed before this module.
    """
    name = resolve_fault_profile(profile)
    if name == "none":
        return None
    return RetryPolicy(max_attempts=_RETRY_ATTEMPTS[name], seed=seed)
