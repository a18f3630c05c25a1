"""Table I — HTTP(S)-connectable destinations per port, plus the crawl funnel."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_rows
from repro.crawl.filters import destinations_summary
from repro.experiments.pipeline import MeasurementPipeline

# Published Table I (full scale) plus the Section IV funnel numbers.
PAPER_TABLE1 = {"80": 3_741, "443": 1_289, "22": 1_094, "8080": 4, "Other": 451}
PAPER_TRIED = 8_153
PAPER_OPEN_AT_CRAWL = 7_114
PAPER_CONNECTED = 6_579


@dataclass
class Table1Result:
    """The regenerated Table I."""

    rows: List[Tuple[str, int]]
    tried: int
    open_at_crawl: int
    connected: int
    report: ExperimentReport

    def format_table(self) -> str:
        """Text rendering of Table I."""
        return format_rows(self.rows, headers=("Port Num", "# of onion addresses"))


def run_table1(pipeline: MeasurementPipeline) -> Table1Result:
    """Regenerate Table I off ``pipeline``'s campaign.

    The paper's counts scale by the world's own size
    (:attr:`~repro.population.spec.PopulationSpec.paper_scale`).
    """
    scale = pipeline.world.spec.paper_scale
    crawl = pipeline.crawl()
    rows = destinations_summary(crawl)

    report = ExperimentReport(experiment="table1-http-access")
    measured = dict(rows)
    for port, paper_count in PAPER_TABLE1.items():
        report.add(f"port {port}", paper_count * scale, measured.get(port, 0))
    report.add("destinations tried", PAPER_TRIED * scale, crawl.tried)
    report.add("open at crawl", PAPER_OPEN_AT_CRAWL * scale, crawl.open_at_crawl)
    report.add("connectable", PAPER_CONNECTED * scale, crawl.connected)
    if crawl.failures.total:
        report.add_failure_taxonomy(crawl.failures, prefix="crawl ")
        report.add("crawl retry attempts", None, crawl.failures.retry_attempts)
    if pipeline.fault_profile != "none":
        report.note(
            f"fault profile '{pipeline.fault_profile}' active; "
            f"retries {'on' if pipeline.retry_policy else 'off'}"
        )
    return Table1Result(
        rows=rows,
        tried=crawl.tried,
        open_at_crawl=crawl.open_at_crawl,
        connected=crawl.connected,
        report=report,
    )
