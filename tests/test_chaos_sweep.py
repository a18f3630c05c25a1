"""Smoke test for the chaos sweep: degrade gracefully, recover by retrying."""

import pytest

from repro.errors import FaultConfigError
from repro.experiments.chaos_sweep import (
    ChaosPoint,
    ChaosSweepResult,
    chaos_plan,
    run_chaos_sweep,
)


def point(rate, open_retry):
    return ChaosPoint(
        rate=rate,
        open_no_retry=open_retry // 2,
        open_retry=open_retry,
        classified_no_retry=0,
        classified_retry=0,
        transient_recovered=0,
        retries_exhausted=0,
    )


class TestChaosSweep:
    def test_sweep_shape_and_recovery(self):
        result = run_chaos_sweep(
            seed=3, scale=0.01, fault_rates=(0.0, 0.2), scan_days=2
        )
        assert [point.rate for point in result.points] == [0.0, 0.2]
        baseline, faulted = result.points

        # Zero faults: retries change nothing, and nothing is recovered.
        assert baseline.open_no_retry == baseline.open_retry
        assert baseline.transient_recovered == 0

        # Heavy faults: the headline count degrades without retries and
        # retries claw some of it back.
        assert faulted.open_no_retry < baseline.open_no_retry
        assert faulted.open_retry > faulted.open_no_retry
        assert faulted.classified_retry >= faulted.classified_no_retry
        assert faulted.transient_recovered > 0

        text = result.report.format()
        assert "chaos" in text
        table = result.format_table()
        assert "20%" in table

    def test_sweep_is_deterministic(self):
        runs = [
            run_chaos_sweep(seed=3, scale=0.01, fault_rates=(0.1,), scan_days=2)
            for _ in range(2)
        ]
        assert runs[0].points == runs[1].points

    def test_chaos_plan_is_named_and_active(self):
        plan = chaos_plan(0.1, seed=4)
        assert plan.active
        assert plan.name == "chaos-0.1"
        assert not chaos_plan(0.0).active


class TestSweepSummary:
    def test_baseline_is_the_first_point_with_retries(self):
        result = ChaosSweepResult(points=[point(0.0, 200), point(0.1, 150)])
        assert result.baseline_open == 200

    def test_empty_sweep_has_no_baseline_and_no_threshold(self):
        result = ChaosSweepResult()
        assert result.baseline_open == 0
        assert result.recovery_threshold_rate is None

    def test_threshold_is_the_highest_recovered_rate(self):
        result = ChaosSweepResult(
            points=[point(0.0, 200), point(0.05, 195), point(0.1, 189), point(0.2, 120)]
        )
        # 0.95 * 200 = 190: the 0.1 point falls just short.
        assert result.recovery_threshold_rate == 0.05

    def test_zero_baseline_counts_every_point_as_recovered(self):
        assert point(0.2, 0).recovered(baseline_open=0)

    def test_rates_outside_the_unit_interval_rejected(self):
        with pytest.raises(FaultConfigError):
            chaos_plan(1.5)
        with pytest.raises(FaultConfigError):
            chaos_plan(-0.1)

    def test_empty_rate_list_rejected(self):
        with pytest.raises(FaultConfigError):
            run_chaos_sweep(fault_rates=())
