"""Ablation: harvest coverage vs fleet size and rotation budget.

Validates the §II design reasoning: coverage compounds across rotation
waves, so few IPs with deep shadow stacks beat many IPs without them — and
quantifies how close the measured sweep comes to the analytic
:func:`expected_capture_probability`.
"""

from conftest import save_report

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_rows
from repro.experiments.harvest import run_harvest
from repro.trawl.coverage import expected_capture_probability, naive_ip_requirement


def sweep_fleets():
    rows = []
    for ip_count, relays_per_ip in ((4, 8), (8, 8), (8, 24), (16, 24)):
        result = run_harvest(
            seed=3,
            scale=0.03,
            ip_count=ip_count,
            relays_per_ip=relays_per_ip,
            sweep_hours=10,
        )
        waves = min(10, relays_per_ip // 2)
        predicted = expected_capture_probability(
            2 * ip_count, result.hsdir_count, waves=waves
        )
        rows.append(
            (
                f"{ip_count}x{relays_per_ip}",
                round(result.harvest_fraction, 3),
                round(predicted, 3),
                result.naive_ips_needed,
            )
        )
    return rows


def test_ablation_shadowing(benchmark, report_dir):
    rows = benchmark.pedantic(sweep_fleets, rounds=1, iterations=1)

    report = ExperimentReport(experiment="ablation-shadowing")
    for label, measured, predicted, naive in rows:
        report.add(f"coverage fleet {label}", predicted, measured)
    report.note("predicted = analytic capture probability; measured = sweep")
    table = format_rows(
        rows, headers=("fleet (ips x relays)", "coverage", "predicted", "naive IPs")
    )
    save_report(report_dir, "ablation_shadowing", report.format() + "\n\n" + table)

    coverages = [measured for _, measured, _, _ in rows]
    # Coverage increases with fleet size and saturates near 1.
    assert coverages == sorted(coverages)
    assert coverages[-1] > 0.95
    # Analytic model within 15 points of the sweep everywhere.
    for _, measured, predicted, _ in rows:
        assert abs(measured - predicted) < 0.15
    # The footnote-3 claim at the real 2013 ring size.
    assert naive_ip_requirement(1200) == 300
