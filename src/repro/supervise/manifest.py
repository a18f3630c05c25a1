"""The CompletenessManifest: what a supervised run actually delivered.

Graceful degradation is only honest if the degradation is *declared*: a
partial result that looks like a full one is a measurement bug waiting to
be cited.  Every supervised run therefore carries a manifest naming the
stages that completed, the stages that are missing or ran over their
deadline budget, every injected crash that fired, the restart/backoff
spend, and any work quarantined by the parallel executor — enough for a
reader (or ``analysis/report.py``) to judge exactly how complete the
numbers are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Sequence

from repro.errors import SupervisionError
from repro.supervise.crashplan import CrashEvent

#: Stage status values a manifest may carry.
STAGE_COMPLETE = "complete"
STAGE_MISSING = "missing"
STAGE_DEADLINE_EXCEEDED = "deadline-exceeded"

_STAGE_STATUSES = (STAGE_COMPLETE, STAGE_MISSING, STAGE_DEADLINE_EXCEEDED)

#: Degradation reasons.
REASON_NONE = ""
REASON_RESTARTS = "restarts-exhausted"
REASON_DEADLINE = "deadline-exceeded"


@dataclass
class StageStatus:
    """One stage's completeness verdict."""

    name: str
    status: str
    #: Simulated seconds the stage's last attempt spent computing (0 on a
    #: checkpoint replay — the compute already happened in a prior life).
    sim_seconds: int = 0

    def __post_init__(self) -> None:
        if self.status not in _STAGE_STATUSES:
            raise SupervisionError(
                f"unknown stage status {self.status!r} "
                f"(want one of {_STAGE_STATUSES})"
            )


@dataclass
class CompletenessManifest:
    """Everything a consumer needs to trust (or discount) a partial result.

    :mod:`repro.codec` encodes it (the artifact ``crashtest
    --manifest-out`` archives and CI uploads) and decodes it strictly.
    """

    KIND: ClassVar[str] = "completeness-manifest"

    stages: List[StageStatus] = field(default_factory=list)
    crashes: List[CrashEvent] = field(default_factory=list)
    restarts_used: int = 0
    #: Simulated seconds spent in restart backoff pauses.
    backoff_sim_seconds: int = 0
    #: Items the parallel executor quarantined instead of aborting on
    #: (``{"index": ..., "error": ...}`` dicts, global item order).
    quarantined_items: List[Dict[str, Any]] = field(default_factory=list)
    degraded: bool = False
    reason: str = REASON_NONE
    #: The crash plan that ran (``CrashPlan.describe()``), for audit.
    crash_plan: Dict[str, Any] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """Every stage complete, nothing quarantined, nothing degraded."""
        return (
            not self.degraded
            and not self.quarantined_items
            and all(stage.status == STAGE_COMPLETE for stage in self.stages)
        )

    def completed_stages(self) -> List[str]:
        """Names of the stages that completed, in pipeline order."""
        return [
            stage.name
            for stage in self.stages
            if stage.status == STAGE_COMPLETE
        ]

    def summary_lines(self) -> List[str]:
        """Human-readable rendering (the CLI prints these)."""
        lines = []
        done = self.completed_stages()
        lines.append(
            f"stages complete: {len(done)}/{len(self.stages)}"
            + (f" ({', '.join(done)})" if done else "")
        )
        for stage in self.stages:
            if stage.status != STAGE_COMPLETE:
                lines.append(f"stage {stage.name}: {stage.status}")
        lines.append(
            f"crashes injected: {len(self.crashes)}"
            + (
                " ("
                + ", ".join(f"{e.point}@{e.visit}" for e in self.crashes)
                + ")"
                if self.crashes
                else ""
            )
        )
        lines.append(
            f"restarts used: {self.restarts_used} "
            f"(backoff {self.backoff_sim_seconds} sim-seconds)"
        )
        if self.quarantined_items:
            lines.append(f"items quarantined: {len(self.quarantined_items)}")
        if self.degraded:
            lines.append(f"DEGRADED: {self.reason}")
        return lines


def export_supervise_metrics(observer, manifest: CompletenessManifest) -> None:
    """Record the manifest as ``supervise_*`` counters/gauges on ``observer``.

    Additive facts become counters, point-in-time facts gauges, so the
    snapshot merges like every other metric in the plane.
    """
    for event in manifest.crashes:
        observer.count("supervise_crashes_total", point=event.point)
    if manifest.restarts_used:
        observer.count("supervise_restarts_total", amount=manifest.restarts_used)
    if manifest.backoff_sim_seconds:
        observer.count(
            "supervise_backoff_sim_seconds_total",
            amount=manifest.backoff_sim_seconds,
        )
    for stage in manifest.stages:
        observer.count(
            "supervise_stage_outcomes_total",
            stage=stage.name,
            status=stage.status,
        )
        if stage.status == STAGE_DEADLINE_EXCEEDED:
            observer.count("supervise_deadline_exceeded_total", stage=stage.name)
    if manifest.quarantined_items:
        observer.count(
            "supervise_quarantined_items_total",
            amount=len(manifest.quarantined_items),
        )
    observer.gauge("supervise_degraded", 1 if manifest.degraded else 0)
    observer.gauge(
        "supervise_stages_complete", len(manifest.completed_stages())
    )


def merge_quarantine(
    manifest: CompletenessManifest, reports: Sequence[Dict[str, Any]]
) -> None:
    """Fold quarantine item reports into the manifest (stable item order)."""
    manifest.quarantined_items.extend(reports)
