"""repro.supervise — crash-safe supervised execution.

The supervision plane sits above store/faults/parallel and makes the
pipeline survivable: a deterministic :class:`CrashPlan` injects process
deaths at named crash points (stage boundaries, pmap shard merges, store
commits), an :class:`EpochSupervisor` restarts the epoch under a bounded
:class:`RestartPolicy` with sim-clock deadline budgets — resuming through
``repro.store`` checkpoints — and whatever actually got delivered is
declared by a :class:`CompletenessManifest`.  The invariant the whole
plane defends, and ``repro crashtest`` asserts: a run that died N times
and was resumed produces final artifacts **byte-identical** to a run
that never died.

Layering: supervise imports only substrate (errors, obs, parallel, sim)
and is imported only by the CLI and tests.  Lower layers receive the
crash hook as a plain callable — they never import this package — and
rule REP014 keeps everyone else from catching the simulated deaths.
"""

from repro.supervise.crashplan import (
    LEDGER_APPEND,
    PIPELINE_STAGES,
    PMAP_SHARD,
    STORE_COMMIT,
    CrashEvent,
    CrashPlan,
    CrashPoints,
    CrashRule,
    build_crash_plan,
    parse_crash_schedule,
    stage_enter,
    stage_exit,
)
from repro.supervise.manifest import (
    REASON_DEADLINE,
    REASON_NONE,
    REASON_RESTARTS,
    STAGE_COMPLETE,
    STAGE_DEADLINE_EXCEEDED,
    STAGE_MISSING,
    CompletenessManifest,
    StageStatus,
    export_supervise_metrics,
    merge_quarantine,
)
from repro.supervise.supervisor import (
    EpochSupervisor,
    RestartPolicy,
    SupervisedOutcome,
    observer_sim_seconds,
    stage_methods,
    supervise_stages,
)

__all__ = [
    "LEDGER_APPEND",
    "PIPELINE_STAGES",
    "PMAP_SHARD",
    "STORE_COMMIT",
    "CrashEvent",
    "CrashPlan",
    "CrashPoints",
    "CrashRule",
    "CompletenessManifest",
    "EpochSupervisor",
    "REASON_DEADLINE",
    "REASON_NONE",
    "REASON_RESTARTS",
    "RestartPolicy",
    "STAGE_COMPLETE",
    "STAGE_DEADLINE_EXCEEDED",
    "STAGE_MISSING",
    "StageStatus",
    "SupervisedOutcome",
    "build_crash_plan",
    "export_supervise_metrics",
    "merge_quarantine",
    "observer_sim_seconds",
    "parse_crash_schedule",
    "stage_enter",
    "stage_exit",
    "stage_methods",
    "supervise_stages",
]
