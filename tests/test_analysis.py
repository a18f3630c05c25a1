"""Tests for repro.analysis — stats, reports, table rendering."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.report import ComparisonRow, ExperimentReport
from repro.analysis.stats import (
    l1_distance,
    relative_error,
    share_table,
)
from repro.analysis.tables import format_bar_chart, format_rows
from repro.faults.taxonomy import FailureCategory, FailureTaxonomy
from repro.supervise.manifest import (
    STAGE_COMPLETE,
    STAGE_MISSING,
    CompletenessManifest,
    StageStatus,
)


class TestStats:
    def test_relative_error(self):
        assert relative_error(110, 100) == pytest.approx(0.1)
        assert relative_error(90, 100) == pytest.approx(0.1)

    def test_relative_error_zero_expected(self):
        assert relative_error(0, 0) == 0.0
        assert relative_error(1, 0) == float("inf")

    def test_l1_distance(self):
        assert l1_distance({"a": 0.6, "b": 0.4}, {"a": 0.5, "b": 0.5}) == pytest.approx(0.2)

    def test_l1_missing_keys(self):
        assert l1_distance({"a": 1.0}, {"b": 1.0}) == pytest.approx(2.0)

    def test_share_table(self):
        shares = share_table({"x": 3, "y": 1})
        assert shares == {"x": 0.75, "y": 0.25}

    def test_share_table_empty(self):
        assert share_table({"x": 0}) == {"x": 0.0}

    @given(
        st.dictionaries(st.sampled_from("abcdef"), st.floats(0, 1), max_size=6),
        st.dictionaries(st.sampled_from("abcdef"), st.floats(0, 1), max_size=6),
    )
    def test_l1_symmetry(self, left, right):
        assert l1_distance(left, right) == pytest.approx(l1_distance(right, left))


class TestExperimentReport:
    def test_rows_and_errors(self):
        report = ExperimentReport(experiment="x")
        report.add("count", 100, 110)
        report.add("unpapered", None, 5)
        assert report.rows[0].error == pytest.approx(0.1)
        assert report.rows[1].error is None
        assert report.max_error() == pytest.approx(0.1)

    def test_format_contains_everything(self):
        report = ExperimentReport(experiment="fig-x")
        report.add("quantity", 10, 12)
        report.note("hello note")
        text = report.format()
        assert "fig-x" in text
        assert "quantity" in text
        assert "20.0%" in text
        assert "hello note" in text

    def test_comparison_row_frozen(self):
        row = ComparisonRow(label="a", paper=1, measured=2)
        with pytest.raises(AttributeError):
            row.measured = 3  # type: ignore[misc]


class TestReportSections:
    def test_failure_taxonomy_adds_one_row_per_category(self):
        taxonomy = FailureTaxonomy()
        taxonomy.record(FailureCategory.PERMANENT)
        taxonomy.record(FailureCategory.TRANSIENT_RECOVERED, attempts=2)
        report = ExperimentReport("x")
        report.add_failure_taxonomy(taxonomy, prefix="scan ")
        assert [(row.label, row.paper, row.measured) for row in report.rows] == [
            ("scan transient recovered", None, 1),
            ("scan retries exhausted", None, 0),
            ("scan permanent failures", None, 1),
        ]

    def test_failure_rows_do_not_count_towards_max_error(self):
        report = ExperimentReport("x")
        report.add("paper row", 100, 90)
        taxonomy = FailureTaxonomy()
        taxonomy.record(FailureCategory.PERMANENT)
        report.add_failure_taxonomy(taxonomy)
        assert report.max_error() == pytest.approx(0.1)

    def test_max_error_without_paper_values_is_zero(self):
        report = ExperimentReport("x")
        report.add("no counterpart", None, 5)
        assert report.max_error() == 0.0

    def test_complete_run_adds_one_confirming_note(self):
        manifest = CompletenessManifest(stages=[StageStatus("scan", STAGE_COMPLETE)])
        report = ExperimentReport("x")
        report.add_completeness(manifest)
        assert report.notes == ["supervision: run complete (no degradation)"]

    def test_partial_run_names_what_is_missing(self):
        manifest = CompletenessManifest(
            stages=[
                StageStatus("scan", STAGE_COMPLETE),
                StageStatus("crawl", STAGE_MISSING),
            ],
            degraded=True,
            reason="restarts-exhausted",
        )
        report = ExperimentReport("x")
        report.add_completeness(manifest)
        assert report.notes[0] == "supervision: PARTIAL RESULT"
        assert "supervision: stage crawl: missing" in report.notes
        assert "supervision: DEGRADED: restarts-exhausted" in report.notes
        assert "PARTIAL RESULT" in report.format()


class TestTables:
    def test_format_rows_alignment(self):
        text = format_rows([("a", 100), ("bbbb", 2)], headers=("k", "v"))
        lines = text.splitlines()
        assert lines[0].startswith("k")
        assert len(lines) == 3

    def test_bar_chart_peak_width(self):
        text = format_bar_chart([("big", 10.0), ("small", 1.0)], width=10)
        lines = text.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 1

    def test_bar_chart_empty(self):
        assert format_bar_chart([]) == "(empty)"

    def test_bar_chart_zero_value(self):
        text = format_bar_chart([("z", 0.0)])
        assert "z" in text
