"""Bench: regenerate §VII (Silk Road tracking detection, 3-year history)."""

from conftest import save_report

from repro.experiments.sec7_tracking import run_sec7


def test_sec7_silkroad_tracking(benchmark, report_dir):
    result = benchmark.pedantic(
        lambda: run_sec7(seed=0, scale=1.0), rounds=1, iterations=1
    )
    save_report(report_dir, "sec7_tracking", result.report.format())

    benchmark.extra_info["periods_year3"] = result.yearly_reports[
        "year3"
    ].periods_analyzed

    # The paper's three-year narrative, verbatim.
    assert len(result.likely_by_year["year1"]) == 0
    assert "our-trackers" in result.detected_entities("year2")
    assert "may-episode" in result.detected_entities("year3")
    assert "aug-episode" in result.detected_entities("year3")
    assert len(result.takeovers) == 1
    for year in ("year1", "year2", "year3"):
        assert result.honest_false_positives(year) == 0

    # Ring growth matches the footnote (757 → 1,862).
    year1 = result.yearly_reports["year1"]
    year3 = result.yearly_reports["year3"]
    assert year1.mean_hsdir_count < 1_100
    assert year3.mean_hsdir_count > 1_400
