"""The EpochSupervisor: bounded restarts, deadline budgets, degradation.

The supervisor is the only layer allowed to catch
:class:`~repro.errors.SimulatedCrashError` (rule REP014).  It runs a
pipeline *factory* — not a pipeline — because a crash kills the process:
every restart builds a fresh incarnation and relies on ``repro.store``
checkpoints to replay the stages the previous life already committed.
PR 5's warm==cold invariant is what makes this sound: a resumed run is
byte-identical to an uninterrupted one, so the supervisor never has to
reason about partially-applied state.

Restart scheduling mirrors :class:`~repro.faults.retry.RetryPolicy`:
bounded attempts, exponential backoff with deterministic jitter drawn
from ``derive_rng(seed, "supervise", "backoff", restart)``, all tallied
in simulated seconds (nothing sleeps).  Per-stage **deadline budgets**
are sim-clock bounds measured from the pipeline observer's span tree; a
stage that blows its budget degrades the run — remaining stages are
skipped and the :class:`~repro.supervise.manifest.CompletenessManifest`
says so — rather than burning restarts on work that will only get
slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import SimulatedCrashError, SupervisionError
from repro.obs.scope import Observer, ensure_observer
from repro.parallel.executor import ShardQuarantine
from repro.sim.clock import Timestamp
from repro.sim.rng import derive_rng
from repro.supervise.crashplan import PIPELINE_STAGES, CrashPlan, CrashPoints
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

#: A pipeline factory: called once per process incarnation with the
#: supervisor's (shared, restart-surviving) crash hook and quarantine,
#: returns an object whose stage methods are named by the stage list.
PipelineFactory = Callable[[CrashPoints, ShardQuarantine], Any]


@dataclass(frozen=True)
class RestartPolicy:
    """How many times — and how eagerly — a dead epoch is restarted.

    Same shape and jitter discipline as
    :class:`~repro.faults.retry.RetryPolicy`: ``backoff_before(n)`` is the
    pause before restart ``n`` (n >= 1), ``base_delay * backoff_factor **
    (n - 1)`` capped at ``max_delay`` and jittered by up to ``±jitter``
    from a stream keyed on (seed, restart number) alone — a pure function
    of the schedule's identity, so supervised runs replay byte-identically.
    """

    max_restarts: int = 8
    base_delay: Timestamp = 2
    backoff_factor: float = 2.0
    max_delay: Timestamp = 600
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise SupervisionError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.base_delay <= 0:
            raise SupervisionError(f"base_delay must be > 0, got {self.base_delay}")
        if self.backoff_factor < 1.0:
            raise SupervisionError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_delay < self.base_delay:
            raise SupervisionError(
                f"max_delay ({self.max_delay}) must be >= base_delay "
                f"({self.base_delay})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise SupervisionError(f"jitter must be in [0, 1), got {self.jitter}")

    def base_backoff(self, restart: int) -> float:
        """Un-jittered pause before restart ``restart`` (>= 1)."""
        if restart < 1:
            raise SupervisionError(f"no backoff precedes restart {restart}")
        return min(
            float(self.base_delay) * self.backoff_factor ** (restart - 1),
            float(self.max_delay),
        )

    def backoff_before(self, restart: int) -> Timestamp:
        """Jittered, whole-second pause before restart ``restart``."""
        base = self.base_backoff(restart)
        if self.jitter:
            rng = derive_rng(self.seed, "supervise", "backoff", str(restart))
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(1, int(round(base)))


@dataclass
class SupervisedOutcome:
    """What a supervised epoch produced (possibly partially)."""

    #: The final pipeline incarnation — pull stage results from it.
    pipeline: Any
    manifest: CompletenessManifest
    crash_points: CrashPoints
    quarantine: ShardQuarantine

    @property
    def completed(self) -> bool:
        """True when nothing was degraded, missing, or quarantined."""
        return self.manifest.complete


def observer_sim_seconds(observer: Optional[Observer]) -> int:
    """Total sim-seconds across an observer's top-level span tree."""
    if observer is None or not getattr(observer, "enabled", False):
        return 0
    return sum(span.duration for span in observer.spans)


class EpochSupervisor:
    """Run one measurement epoch to completion under a crash plan."""

    def __init__(
        self,
        plan: CrashPlan,
        policy: Optional[RestartPolicy] = None,
        budgets: Optional[Mapping[str, Timestamp]] = None,
        observer: Optional[Observer] = None,
        quarantine_attempts: int = 2,
    ) -> None:
        self.plan = plan
        self.policy = policy if policy is not None else RestartPolicy(seed=plan.seed)
        self.budgets: Dict[str, Timestamp] = dict(budgets or {})
        for stage, budget in self.budgets.items():
            if budget < 1:
                raise SupervisionError(
                    f"deadline budget for stage {stage!r} must be >= 1 "
                    f"sim-second, got {budget}"
                )
        self.observer = ensure_observer(observer)
        self.quarantine_attempts = quarantine_attempts

    def run(
        self,
        factory: PipelineFactory,
        stages: Sequence[str] = PIPELINE_STAGES,
    ) -> SupervisedOutcome:
        """Drive ``factory``'s pipeline through ``stages``, restarting on death.

        The :class:`CrashPoints` hook and :class:`ShardQuarantine` are
        created here and live across every restart — visit counts stay
        monotonic (each scheduled crash fires exactly once) and quarantined
        items stay quarantined.
        """
        if not stages:
            raise SupervisionError("a supervised epoch needs at least one stage")
        crash_points = CrashPoints(self.plan)
        quarantine = ShardQuarantine(max_attempts=self.quarantine_attempts)
        statuses: Dict[str, StageStatus] = {
            name: StageStatus(name=name, status=STAGE_MISSING) for name in stages
        }
        restarts_used = 0
        backoff_sim: int = 0
        degraded = False
        reason = REASON_NONE
        pipeline: Any = None
        while True:
            pipeline = factory(crash_points, quarantine)
            try:
                for name in stages:
                    run_stage = getattr(pipeline, name, None)
                    if run_stage is None:
                        raise SupervisionError(
                            f"pipeline has no stage method {name!r}"
                        )
                    pipeline_observer = getattr(pipeline, "observer", None)
                    before = observer_sim_seconds(pipeline_observer)
                    run_stage()
                    spent = observer_sim_seconds(pipeline_observer) - before
                    status = statuses[name]
                    # A checkpoint replay costs ~0 sim-seconds; keep the
                    # max so the manifest reports the real compute cost of
                    # whichever life actually ran the stage.
                    status.sim_seconds = max(status.sim_seconds, spent)
                    status.status = STAGE_COMPLETE
                    budget = self.budgets.get(name)
                    if budget is not None and status.sim_seconds > budget:
                        status.status = STAGE_DEADLINE_EXCEEDED
                        degraded = True
                        reason = REASON_DEADLINE
                        break
                break
            except SimulatedCrashError:
                # The one legal catch of a simulated process death: this
                # IS the supervisor.  Anything else — a genuine bug —
                # propagates untouched.
                if restarts_used >= self.policy.max_restarts:
                    degraded = True
                    reason = REASON_RESTARTS
                    break
                restarts_used += 1
                backoff_sim += self.policy.backoff_before(restarts_used)
        manifest = CompletenessManifest(
            stages=[statuses[name] for name in stages],
            crashes=list(crash_points.fired),
            restarts_used=restarts_used,
            backoff_sim_seconds=backoff_sim,
            degraded=degraded,
            reason=reason,
            crash_plan=self.plan.describe(),
        )
        merge_quarantine(manifest, quarantine.reports())
        export_supervise_metrics(self.observer, manifest)
        return SupervisedOutcome(
            pipeline=pipeline,
            manifest=manifest,
            crash_points=crash_points,
            quarantine=quarantine,
        )


def supervise_stages(
    factory: PipelineFactory,
    plan: CrashPlan,
    stages: Sequence[str] = PIPELINE_STAGES,
    policy: Optional[RestartPolicy] = None,
    budgets: Optional[Mapping[str, Timestamp]] = None,
    observer: Optional[Observer] = None,
) -> SupervisedOutcome:
    """One-shot convenience over :class:`EpochSupervisor`."""
    supervisor = EpochSupervisor(
        plan, policy=policy, budgets=budgets, observer=observer
    )
    return supervisor.run(factory, stages=stages)


def stage_methods(stages: Sequence[str]) -> Tuple[str, ...]:
    """Validate and normalise a stage-name sequence."""
    seen = set()
    for name in stages:
        if not name:
            raise SupervisionError("stage names must be non-empty")
        if name in seen:
            raise SupervisionError(f"duplicate stage name {name!r}")
        seen.add(name)
    return tuple(stages)
