"""Chaos sweep — headline numbers vs injected fault rate, with/without retries.

The paper's totals (22,007 open ports; 3,050 classified destinations) came
out of one week on a network that was actively failing underneath the
scanner.  This experiment makes that robustness claim measurable: sweep a
family of fault plans of increasing severity over the same world and seed,
run the full pipeline twice per severity — retries off, retries on — and
report how the headline counts degrade and how much of the loss the retry
layer buys back.

Each sweep point mixes the transient fault kinds at a common ``rate``:
circuit timeouts at ``rate``, descriptor flaps and truncation at half of
it, slow circuits at ``rate``.  HSDir outages are deliberately excluded —
they are *not* transient at probe timescale, so retries cannot recover
them and they would blur the recovery signal this sweep isolates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.report import ExperimentReport
from repro.errors import FaultConfigError
from repro.experiments.pipeline import MeasurementPipeline
from repro.faults.plan import (
    CircuitTimeoutFault,
    DescriptorFlapFault,
    FaultPlan,
    SlowCircuitFault,
    TruncationFault,
)
from repro.faults.retry import RetryPolicy

# Paper headline totals (full scale), re-stated here so the sweep report is
# self-contained.
PAPER_TOTAL_OPEN = 22_007
PAPER_CLASSIFIED = 3_050

#: A retried run counts as "recovered" when it keeps at least this share of
#: the fault-free open-port count.
RECOVERY_THRESHOLD = 0.95


def chaos_plan(rate: float, seed: int = 0) -> FaultPlan:
    """The sweep's fault plan at severity ``rate``."""
    if not 0.0 <= rate <= 1.0:
        raise FaultConfigError(f"fault rate must be in [0, 1], got {rate}")
    if rate == 0.0:
        return FaultPlan(seed=seed, rules=(), name="chaos-0")
    return FaultPlan(
        seed=seed,
        rules=(
            CircuitTimeoutFault(rate=rate),
            DescriptorFlapFault(rate=rate / 2),
            TruncationFault(rate=rate / 2),
            SlowCircuitFault(rate=rate, extra_latency=30),
        ),
        name=f"chaos-{rate:g}",
    )


@dataclass
class ChaosPoint:
    """Pipeline headline counts at one fault rate, retries off and on."""

    rate: float
    open_no_retry: int
    open_retry: int
    classified_no_retry: int
    classified_retry: int
    transient_recovered: int
    retries_exhausted: int

    def recovered(self, baseline_open: int) -> bool:
        """Did retries keep open ports above the recovery threshold?"""
        if not baseline_open:
            return True
        return self.open_retry >= RECOVERY_THRESHOLD * baseline_open


@dataclass
class ChaosSweepResult:
    """The full sweep plus its paper-vs-measured report."""

    points: List[ChaosPoint] = field(default_factory=list)
    report: ExperimentReport = field(
        default_factory=lambda: ExperimentReport(experiment="chaos-sweep")
    )

    @property
    def baseline_open(self) -> int:
        """Open ports at the lowest swept fault rate, with retries."""
        return self.points[0].open_retry if self.points else 0

    @property
    def recovery_threshold_rate(self) -> Optional[float]:
        """Highest swept rate at which retries still recover the scan."""
        recovered = [
            point.rate
            for point in self.points
            if point.recovered(self.baseline_open)
        ]
        return max(recovered) if recovered else None

    def format_table(self) -> str:
        """Fixed-width table: counts vs fault rate, with and without retries."""
        header = (
            f"{'rate':>6}  {'open -retry':>11}  {'open +retry':>11}  "
            f"{'class -retry':>12}  {'class +retry':>12}  {'recov':>5}  {'exhst':>5}"
        )
        lines = [header, "-" * len(header)]
        for point in self.points:
            lines.append(
                f"{point.rate:>6.0%}  {point.open_no_retry:>11}  "
                f"{point.open_retry:>11}  {point.classified_no_retry:>12}  "
                f"{point.classified_retry:>12}  {point.transient_recovered:>5}  "
                f"{point.retries_exhausted:>5}"
            )
        return "\n".join(lines)


def run_chaos_sweep(
    seed: int = 0,
    scale: float = 0.02,
    fault_rates: Sequence[float] = (0.0, 0.02, 0.05, 0.1, 0.2),
    workers: Optional[int] = None,
    scan_days: int = 8,
) -> ChaosSweepResult:
    """Sweep fault severity over the full pipeline, retries off then on."""
    if not fault_rates:
        raise FaultConfigError("fault_rates must not be empty")
    rates = sorted(set(float(rate) for rate in fault_rates))
    policy = RetryPolicy(max_attempts=3, seed=seed)
    sweep = ChaosSweepResult()

    def headline(pipeline: MeasurementPipeline):
        scan = pipeline.scan()
        classified = pipeline.classifiable().classified_count
        return scan, classified

    for rate in rates:
        without = MeasurementPipeline(
            seed=seed,
            scale=scale,
            scan_days=scan_days,
            workers=workers,
            fault_plan=chaos_plan(rate, seed=seed),
            retries=False,
        )
        with_retries = MeasurementPipeline(
            seed=seed,
            scale=scale,
            scan_days=scan_days,
            workers=workers,
            fault_plan=chaos_plan(rate, seed=seed),
            retry_policy=policy,
        )
        scan_off, classified_off = headline(without)
        scan_on, classified_on = headline(with_retries)
        crawl_failures = with_retries.crawl().failures
        sweep.points.append(
            ChaosPoint(
                rate=rate,
                open_no_retry=scan_off.total_open_ports,
                open_retry=scan_on.total_open_ports,
                classified_no_retry=classified_off,
                classified_retry=classified_on,
                transient_recovered=(
                    scan_on.failures.transient_recovered
                    + crawl_failures.transient_recovered
                ),
                retries_exhausted=(
                    scan_on.failures.retries_exhausted
                    + crawl_failures.retries_exhausted
                ),
            )
        )

    report = sweep.report
    baseline = sweep.points[0]
    report.add("baseline open ports", PAPER_TOTAL_OPEN * scale, baseline.open_retry)
    report.add(
        "baseline classified", PAPER_CLASSIFIED * scale, baseline.classified_retry
    )
    for point in sweep.points[1:]:
        label = f"{point.rate:.0%} faults"
        report.add(f"open ports, {label}, no retry", None, point.open_no_retry)
        report.add(f"open ports, {label}, retry", None, point.open_retry)
        report.add(f"classified, {label}, no retry", None, point.classified_no_retry)
        report.add(f"classified, {label}, retry", None, point.classified_retry)
    threshold = sweep.recovery_threshold_rate
    if threshold is not None:
        report.note(
            f"retries hold open ports within {1 - RECOVERY_THRESHOLD:.0%} of the "
            f"fault-free count up to a {threshold:.0%} fault rate"
        )
    else:
        report.note(
            "no swept fault rate stayed within the recovery threshold — "
            "severity exceeds what this retry budget can absorb"
        )
    return sweep
