"""Bench: chaos sweep — headline counts vs fault rate, with/without retries."""

from conftest import save_report

from repro.experiments.chaos_sweep import run_chaos_sweep


def test_chaos_sweep(benchmark, report_dir):
    result = benchmark.pedantic(
        lambda: run_chaos_sweep(seed=0, scale=0.02, fault_rates=(0.0, 0.05, 0.2)),
        rounds=1,
        iterations=1,
    )
    text = result.report.format() + "\n\n" + result.format_table()
    save_report(report_dir, "chaos_sweep", text)

    baseline = result.points[0]
    worst = result.points[-1]
    benchmark.extra_info["baseline_open"] = baseline.open_retry
    benchmark.extra_info["worst_rate_open_retry"] = worst.open_retry

    # Shape assertions: faults shrink the counts, retries claw them back.
    assert worst.open_no_retry < baseline.open_no_retry
    assert worst.open_retry > worst.open_no_retry
    assert worst.classified_retry >= worst.classified_no_retry
    assert worst.transient_recovered > 0
