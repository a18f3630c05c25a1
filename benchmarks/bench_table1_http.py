"""Bench: regenerate Table I (HTTP/HTTPS-connectable destinations)."""

from conftest import record_phase_timings, save_report

from repro.experiments.table1_http import run_table1


def test_table1_http_access(benchmark, full_pipeline, report_dir):
    result = benchmark.pedantic(
        lambda: run_table1(pipeline=full_pipeline), rounds=1, iterations=1
    )
    text = result.report.format() + "\n\n" + result.format_table()
    save_report(report_dir, "table1_http", text)
    record_phase_timings(benchmark, full_pipeline.observer)

    benchmark.extra_info["connected"] = result.connected
    rows = dict(result.rows)
    # Funnel + ordering shape.
    assert result.tried > result.open_at_crawl > result.connected
    assert rows["80"] > rows["443"] > rows["8080"]
    assert rows["22"] > rows["Other"] / 2
    # Every big cell within 15% of the paper at full scale.
    for row in result.report.rows:
        if row.paper and row.paper > 100:
            assert row.error < 0.15, f"{row.label}: {row.measured} vs {row.paper}"
