"""Tests for repro.supervise.crashplan — deterministic crash injection.

The properties the supervisor leans on:

- a plan fires as a pure function of (point label, visit number) — no
  wall-clock, no scheduling;
- visit counts are owned by the CrashPoints hook and are monotonic across
  restarts, so every scheduled crash is a one-shot;
- the injected death is a BaseException that sails past ``except
  Exception`` — only the supervisor may catch it.
"""

import pytest

from repro.errors import SimulatedCrashError, SupervisionError
from repro.runconfig import PROFILES
from repro.supervise import (
    LEDGER_APPEND,
    PIPELINE_STAGES,
    PMAP_SHARD,
    STORE_COMMIT,
    CrashPlan,
    CrashPoints,
    CrashRule,
    build_crash_plan,
    crashplan,
    parse_crash_schedule,
    stage_enter,
    stage_exit,
)


class TestLabels:
    def test_stage_labels(self):
        assert stage_enter("scan") == "stage:scan:enter"
        assert stage_exit("classify") == "stage:classify:exit"

    def test_canonical_labels_match_lower_layers(self):
        # The lower layers spell these labels locally (no supervise
        # import); the constants here must agree with them.
        from repro.parallel import PMAP_SHARD_POINT
        from repro.store import LEDGER_APPEND_POINT, STORE_COMMIT_POINT

        assert PMAP_SHARD == PMAP_SHARD_POINT
        assert STORE_COMMIT == STORE_COMMIT_POINT
        assert LEDGER_APPEND == LEDGER_APPEND_POINT

    def test_pipeline_stages_in_campaign_order(self):
        assert PIPELINE_STAGES == ("scan", "certificates", "crawl", "classify")


class TestCrashRule:
    def test_default_visit_is_one(self):
        assert CrashRule("stage:scan:enter").visit == 1

    def test_empty_label_rejected(self):
        with pytest.raises(SupervisionError):
            CrashRule("")

    @pytest.mark.parametrize("visit", [0, -3])
    def test_non_positive_visit_rejected(self, visit):
        with pytest.raises(SupervisionError):
            CrashRule("x", visit)


class TestCrashPlan:
    def test_inert_plan_has_no_rules(self):
        assert CrashPlan().inert
        assert not CrashPlan(rules=(CrashRule("x"),)).inert

    def test_duplicate_rules_rejected(self):
        with pytest.raises(SupervisionError):
            CrashPlan(rules=(CrashRule("x", 2), CrashRule("x", 2)))

    def test_same_point_distinct_visits_allowed(self):
        plan = CrashPlan(rules=(CrashRule("x", 1), CrashRule("x", 3)))
        assert plan.should_crash("x", 1)
        assert not plan.should_crash("x", 2)
        assert plan.should_crash("x", 3)
        assert not plan.should_crash("y", 1)

    def test_describe_is_json_friendly(self):
        plan = CrashPlan(seed=7, rules=(CrashRule("a", 2),), name="custom")
        assert plan.describe() == {
            "name": "custom",
            "seed": 7,
            "rules": ["a@2"],
        }


class TestCrashPoints:
    def test_inert_plan_never_fires(self):
        points = CrashPoints(CrashPlan())
        for _ in range(10):
            points("stage:scan:enter")
        assert points.crash_count == 0
        # Inert plans skip bookkeeping entirely (the hot-path case).
        assert points.visits == {}

    def test_fires_at_scheduled_visit_exactly_once(self):
        plan = CrashPlan(rules=(CrashRule("p", 2),))
        points = CrashPoints(plan)
        points("p")  # visit 1: survives
        with pytest.raises(SimulatedCrashError) as info:
            points("p")  # visit 2: dies
        assert info.value.point == "p"
        assert info.value.visit == 2
        # Visits are monotonic: the restart's hits are visits 3, 4, ... so
        # the scheduled crash never fires again.
        for _ in range(5):
            points("p")
        assert points.crash_count == 1
        assert points.visits["p"] == 7

    def test_fired_log_and_distinct_points(self):
        plan = CrashPlan(rules=(CrashRule("b", 1), CrashRule("a", 2)))
        points = CrashPoints(plan)
        with pytest.raises(SimulatedCrashError):
            points("b")
        points("a")
        with pytest.raises(SimulatedCrashError):
            points("a")
        assert [(e.point, e.visit) for e in points.fired] == [("b", 1), ("a", 2)]
        assert points.distinct_points() == ("a", "b")

    def test_injected_death_is_not_an_ordinary_exception(self):
        # The whole point: ``except Exception`` must NOT contain it.
        points = CrashPoints(CrashPlan(rules=(CrashRule("p", 1),)))
        with pytest.raises(SimulatedCrashError):
            try:
                points("p")
            except Exception:  # noqa: REP008 — proving the miss
                pytest.fail("SimulatedCrashError was caught by except Exception")


class TestProfiles:
    def test_every_shared_profile_name_is_defined(self):
        assert tuple(crashplan._PROFILES) == PROFILES

    def test_none_profile_is_inert(self):
        assert build_crash_plan("none").inert

    @pytest.mark.parametrize("name", ["light", "moderate", "heavy"])
    def test_injecting_profiles_have_rules(self, name):
        plan = build_crash_plan(name, seed=3)
        assert plan.name == name
        assert plan.seed == 3
        assert not plan.inert

    def test_moderate_meets_the_acceptance_bar(self):
        # >= 5 rules at >= 5 distinct labels spanning stage, shard, and
        # commit crash points — the ``repro crashtest`` acceptance shape.
        plan = build_crash_plan("moderate")
        labels = {rule.point for rule in plan.rules}
        assert len(plan.rules) >= 5
        assert len(labels) >= 5
        assert any(label.startswith("stage:") for label in labels)
        assert PMAP_SHARD in labels
        assert STORE_COMMIT in labels

    def test_heavy_covers_the_ledger_append(self):
        labels = {rule.point for rule in build_crash_plan("heavy").rules}
        assert LEDGER_APPEND in labels

    def test_profile_name_is_case_insensitive(self):
        assert build_crash_plan("MODERATE").name == "moderate"


class TestScheduleParsing:
    def test_explicit_schedule(self):
        rules = parse_crash_schedule("stage:scan:exit@2, pmap:shard@3")
        assert rules == (
            CrashRule("stage:scan:exit", 2),
            CrashRule("pmap:shard", 3),
        )

    def test_visit_defaults_to_one(self):
        assert parse_crash_schedule("store:commit") == (
            CrashRule("store:commit", 1),
        )

    def test_blank_entries_skipped(self):
        assert parse_crash_schedule("a@1,, ,b@2") == (
            CrashRule("a", 1),
            CrashRule("b", 2),
        )

    def test_bad_visit_rejected(self):
        with pytest.raises(SupervisionError):
            parse_crash_schedule("a@soon")

    def test_missing_label_rejected(self):
        with pytest.raises(SupervisionError):
            parse_crash_schedule("@2")


class TestSpecResolution:
    def test_default_is_none_profile(self):
        assert build_crash_plan().inert

    def test_build_accepts_schedule_spec(self):
        plan = build_crash_plan("stage:crawl:enter@1", seed=5)
        assert plan.name == "custom"
        assert plan.rules == (CrashRule("stage:crawl:enter", 1),)

    def test_unknown_profile_rejected(self):
        with pytest.raises(SupervisionError):
            build_crash_plan("catastrophic")
