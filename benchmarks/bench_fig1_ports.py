"""Bench: regenerate Fig 1 (open-ports distribution) + §III TLS findings."""

from conftest import record_phase_timings, save_report, save_span_report

from repro.experiments.fig1_ports import run_fig1


def test_fig1_open_ports(benchmark, full_pipeline, report_dir):
    result = benchmark.pedantic(
        lambda: run_fig1(pipeline=full_pipeline), rounds=1, iterations=1
    )
    text = result.report.format() + "\n\n" + result.format_figure()
    save_report(report_dir, "fig1_ports", text)
    save_span_report(report_dir, "fig1_ports", full_pipeline.observer)
    record_phase_timings(benchmark, full_pipeline.observer)

    benchmark.extra_info["total_open_ports"] = result.distribution.total_open
    benchmark.extra_info["max_rel_error"] = round(result.report.max_error(), 4)

    # Shape assertions (who wins, roughly by how much).
    counts = result.distribution.counts
    assert counts["55080-Skynet"] > 3 * counts["80-http"]
    assert counts["80-http"] > 2.5 * counts["443-https"]
    assert result.report.max_error() < 0.25
