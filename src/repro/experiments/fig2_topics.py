"""Fig 2 — topic distribution, language mix, and the exclusion funnel."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_bar_chart
from repro.experiments.pipeline import ClassificationOutcome, MeasurementPipeline
from repro.population.corpus import TOPIC_DISPLAY_NAMES
from repro.population.spec import TOPIC_SHARES

# Section IV funnel (full scale).
PAPER_CLASSIFIED = 3_050
PAPER_SHORT_EXCLUDED = 2_348
PAPER_SSH_BANNERS = 1_092
PAPER_DUP_443 = 1_108
PAPER_ERROR_PAGES = 73
PAPER_ENGLISH = 2_618
PAPER_TORHOST_DEFAULT = 805
PAPER_TOPIC_CLASSIFIED = 1_813
PAPER_ENGLISH_FRACTION = 0.84
PAPER_LANGUAGE_COUNT = 17


@dataclass
class Fig2Result:
    """The regenerated Fig 2 and its funnel."""

    outcome: ClassificationOutcome
    funnel: Dict[str, int]
    report: ExperimentReport

    def format_figure(self) -> str:
        """Text rendering of Fig 2 (topic percentages)."""
        shares = self.outcome.topic_shares_percent()
        rows = [
            (TOPIC_DISPLAY_NAMES.get(topic, topic), round(share, 1))
            for topic, share in sorted(shares.items(), key=lambda kv: -kv[1])
        ]
        return format_bar_chart(rows, width=40, unit="%")


def run_fig2(pipeline: MeasurementPipeline) -> Fig2Result:
    """Regenerate Fig 2 off ``pipeline``'s campaign.

    The paper's counts scale by the world's own size
    (:attr:`~repro.population.spec.PopulationSpec.paper_scale`).
    """
    scale = pipeline.world.spec.paper_scale
    classifiable = pipeline.classifiable()
    outcome = pipeline.classify()

    funnel = {
        "classified": classifiable.classified_count,
        "short_excluded": classifiable.short_excluded,
        "ssh_banners": classifiable.ssh_banner_excluded,
        "dup_443": classifiable.duplicate_443_excluded,
        "error_pages": classifiable.error_page_excluded,
    }

    report = ExperimentReport(experiment="fig2-topics")
    report.add("classified destinations", PAPER_CLASSIFIED * scale, funnel["classified"])
    report.add("short excluded", PAPER_SHORT_EXCLUDED * scale, funnel["short_excluded"])
    report.add("ssh banners", PAPER_SSH_BANNERS * scale, funnel["ssh_banners"])
    report.add("dup-443 excluded", PAPER_DUP_443 * scale, funnel["dup_443"])
    report.add("error pages excluded", PAPER_ERROR_PAGES * scale, funnel["error_pages"])
    report.add("english pages", PAPER_ENGLISH * scale, outcome.english_pages)
    report.add(
        "english fraction",
        PAPER_ENGLISH_FRACTION,
        round(outcome.english_fraction, 3),
    )
    report.add(
        "torhost default pages",
        PAPER_TORHOST_DEFAULT * scale,
        outcome.torhost_default_count,
    )
    report.add(
        "topic-classified pages",
        PAPER_TOPIC_CLASSIFIED * scale,
        sum(outcome.topic_counts.values()),
    )
    report.add(
        "languages observed",
        PAPER_LANGUAGE_COUNT,
        len(outcome.language_counts),
    )
    shares = outcome.topic_shares_percent()
    for topic, paper_share in TOPIC_SHARES.items():
        report.add(
            f"topic {TOPIC_DISPLAY_NAMES.get(topic, topic)} %",
            paper_share,
            round(shares.get(topic, 0.0), 1),
        )
    report.note("topics measured over topic-classified English pages, as Fig 2")
    return Fig2Result(outcome=outcome, funnel=funnel, report=report)
