"""Deterministic crash-point injection: the CrashPlan.

A *crash point* is a named location the pipeline threads through its
execution — stage boundaries (``stage:scan:enter``), pmap shard merges
(``pmap:shard``), store commits (``store:commit``) — each hit through a
:class:`CrashPoints` hook.  A :class:`CrashPlan` answers, for every hit,
"does the process die here?" exactly the way a :class:`~repro.faults.plan.
FaultPlan` answers "does a fault fire here?": as a pure function of the
plan and the hit's identity, never of wall-clock, scheduling, or worker
count.

A plan is a set of :class:`CrashRule` entries, each naming a point label
and the 1-based *visit* at which it fires.  Visit counts are owned by the
:class:`CrashPoints` instance and are **monotonic across restarts** — the
supervisor keeps one instance alive over every restart — so a scheduled
crash fires exactly once: the visit it names happens exactly once in a
supervised run's lifetime.  The injected death is a
:class:`~repro.errors.SimulatedCrashError`, a ``BaseException`` that no
ordinary handler may catch (rule REP014), so every layer between the
crash point and the supervisor behaves exactly as it would under SIGKILL.

Named profiles (``none`` / ``light`` / ``moderate`` / ``heavy``) bundle
schedules over the canonical pipeline labels; ``$REPRO_CRASHES`` (or
``--crash-profile``) also accepts an explicit ``label@visit,label@visit``
schedule for surgical tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import SimulatedCrashError, SupervisionError
from repro.runconfig import PROFILES

#: Canonical crash-point labels threaded by the lower layers.
PMAP_SHARD = "pmap:shard"
STORE_COMMIT = "store:commit"
LEDGER_APPEND = "store:ledger:append"


def stage_enter(stage: str) -> str:
    """The crash-point label hit just before stage ``stage`` runs."""
    return f"stage:{stage}:enter"


def stage_exit(stage: str) -> str:
    """The crash-point label hit just after stage ``stage`` commits."""
    return f"stage:{stage}:exit"


@dataclass(frozen=True)
class CrashRule:
    """Die at the ``visit``-th hit of crash point ``point``."""

    point: str
    visit: int = 1

    def __post_init__(self) -> None:
        if not self.point:
            raise SupervisionError("crash rule needs a non-empty point label")
        if self.visit < 1:
            raise SupervisionError(
                f"crash visit must be >= 1, got {self.visit} for {self.point!r}"
            )


@dataclass(frozen=True)
class CrashEvent:
    """One crash that actually fired."""

    point: str
    visit: int


@dataclass(frozen=True)
class CrashPlan:
    """A named, deterministic schedule of injected process deaths."""

    seed: int = 0
    rules: Tuple[CrashRule, ...] = ()
    name: str = "custom"

    def __post_init__(self) -> None:
        seen = set()
        for rule in self.rules:
            key = (rule.point, rule.visit)
            if key in seen:
                raise SupervisionError(
                    f"duplicate crash rule {rule.point}@{rule.visit}"
                )
            seen.add(key)

    @property
    def inert(self) -> bool:
        """Whether this plan can never fire."""
        return not self.rules

    def should_crash(self, point: str, visit: int) -> bool:
        """Whether the ``visit``-th hit of ``point`` dies."""
        return any(
            rule.point == point and rule.visit == visit for rule in self.rules
        )

    def describe(self) -> Dict[str, object]:
        """JSON-compatible description (manifests, logs)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "rules": [f"{rule.point}@{rule.visit}" for rule in self.rules],
        }


class CrashPoints:
    """The runtime hook a :class:`CrashPlan` fires through.

    Callable — lower layers receive it as a plain ``crash_point`` callable
    (no ``supervise`` import), call it with a label, and either return
    normally or die.  Visit counts and the fired-event log live here and
    survive pipeline restarts, which is what makes every scheduled crash a
    one-shot: its visit number is only ever reached once.
    """

    def __init__(self, plan: CrashPlan) -> None:
        self.plan = plan
        self.visits: Dict[str, int] = {}
        #: Every crash that fired, in firing order.
        self.fired: List[CrashEvent] = []

    def __call__(self, point: str) -> None:
        if self.plan.inert:
            return
        visit = self.visits.get(point, 0) + 1
        self.visits[point] = visit
        if self.plan.should_crash(point, visit):
            event = CrashEvent(point=point, visit=visit)
            self.fired.append(event)
            raise SimulatedCrashError(point=point, visit=visit)

    @property
    def crash_count(self) -> int:
        """How many injected deaths have fired so far."""
        return len(self.fired)

    def distinct_points(self) -> Tuple[str, ...]:
        """The sorted distinct labels that have crashed."""
        return tuple(sorted({event.point for event in self.fired}))


#: The four pipeline stages, in execution order — shared by the profiles
#: below and by :class:`~repro.supervise.supervisor.EpochSupervisor`
#: callers that supervise the standard campaign.
PIPELINE_STAGES = ("scan", "certificates", "crawl", "classify")

_PROFILES: Dict[str, Tuple[CrashRule, ...]] = {
    "none": (),
    # One death mid-campaign: the minimum restart/resume exercise.
    "light": (
        CrashRule(stage_exit("scan"), 1),
        CrashRule(STORE_COMMIT, 2),
    ),
    # The acceptance bar: >= 5 deaths across distinct stage-boundary,
    # shard-boundary, and commit-point labels in one supervised run.
    "moderate": (
        CrashRule(stage_enter("scan"), 1),
        CrashRule(stage_exit("scan"), 1),
        CrashRule(STORE_COMMIT, 2),
        CrashRule(stage_enter("crawl"), 1),
        CrashRule(PMAP_SHARD, 3),
        CrashRule(stage_exit("classify"), 1),
    ),
    # Everything above plus repeated commit deaths and a torn ledger
    # append: the store must heal uncommitted objects and half-written
    # audit lines alike.
    "heavy": (
        CrashRule(stage_enter("scan"), 1),
        CrashRule(stage_exit("scan"), 1),
        CrashRule(STORE_COMMIT, 2),
        CrashRule(STORE_COMMIT, 3),
        CrashRule(LEDGER_APPEND, 4),
        CrashRule(stage_enter("crawl"), 1),
        CrashRule(stage_exit("crawl"), 1),
        CrashRule(PMAP_SHARD, 2),
        CrashRule(PMAP_SHARD, 5),
        CrashRule(stage_exit("classify"), 1),
    ),
}


def parse_crash_schedule(spec: str) -> Tuple[CrashRule, ...]:
    """Parse an explicit ``label@visit,label@visit`` schedule."""
    rules: List[CrashRule] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        label, _, visit_text = token.partition("@")
        if not label:
            raise SupervisionError(f"crash schedule entry has no label: {token!r}")
        visit = 1
        if visit_text:
            try:
                visit = int(visit_text)
            except ValueError as exc:
                raise SupervisionError(
                    f"crash schedule visit must be an integer: {token!r}"
                ) from exc
        rules.append(CrashRule(point=label, visit=visit))
    return tuple(rules)


def build_crash_plan(spec: str = "none", seed: int = 0) -> CrashPlan:
    """The :class:`CrashPlan` for ``spec`` at ``seed``.

    ``spec`` is a profile name or an explicit ``label@visit,...`` schedule
    (anything containing ``@`` or ``:`` is treated as a schedule).
    """
    resolved = spec.strip()
    lowered = resolved.lower()
    if lowered in _PROFILES:
        return CrashPlan(seed=seed, rules=_PROFILES[lowered], name=lowered)
    if "@" in resolved or ":" in resolved:
        return CrashPlan(
            seed=seed, rules=parse_crash_schedule(resolved), name="custom"
        )
    raise SupervisionError(
        f"unknown crash profile {resolved!r}; expected one of "
        f"{', '.join(PROFILES)} or a label@visit schedule"
    )
