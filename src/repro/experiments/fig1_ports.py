"""Fig 1 — open-ports distribution, plus the Section III TLS findings."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_bar_chart
from repro.experiments.pipeline import MeasurementPipeline
from repro.scan.results import PortDistribution

# Published Fig 1 counts (full scale).
PAPER_FIG1 = {
    "55080-Skynet": 13_854,
    "80-http": 4_027,
    "443-https": 1_366,
    "22-ssh": 1_238,
    "11009-TorChat": 385,
    "4050": 138,
    "6667-irc": 113,
    "other": 886,
}
PAPER_TOTAL_OPEN = 22_007
PAPER_UNIQUE_PORTS = 495
PAPER_DESCRIPTORS_AVAILABLE = 24_511
PAPER_SELF_SIGNED_MISMATCH = 1_225
PAPER_TORHOST_CN = 1_168
PAPER_DEANON_CERTS = 34


@dataclass
class Fig1Result:
    """Everything the Fig 1 bench reports."""

    distribution: PortDistribution
    descriptors_available: int
    report: ExperimentReport

    def format_figure(self) -> str:
        """The text rendering of Fig 1."""
        rows = [(label, float(count)) for label, count in self.distribution.as_rows()]
        return format_bar_chart(rows, width=44)


def run_fig1(pipeline: MeasurementPipeline) -> Fig1Result:
    """Regenerate Fig 1 (and the TLS findings) off ``pipeline``'s campaign.

    The paper's counts scale by the world's own size
    (:attr:`~repro.population.spec.PopulationSpec.paper_scale`).
    """
    scale = pipeline.world.spec.paper_scale
    scan = pipeline.scan()
    certs = pipeline.certificates()
    distribution = scan.port_distribution()

    report = ExperimentReport(experiment="fig1-open-ports")
    for label, paper_count in PAPER_FIG1.items():
        report.add(label, paper_count * scale, distribution.counts.get(label, 0))
    report.add("total open ports", PAPER_TOTAL_OPEN * scale, distribution.total_open)
    report.add("unique port numbers", PAPER_UNIQUE_PORTS * scale, distribution.unique_ports)
    report.add(
        "descriptors available",
        PAPER_DESCRIPTORS_AVAILABLE * scale,
        len(scan.descriptor_onions),
    )
    report.add(
        "self-signed CN mismatch",
        PAPER_SELF_SIGNED_MISMATCH * scale,
        certs.self_signed_mismatch,
    )
    report.add("TorHost CN certs", PAPER_TORHOST_CN * scale, certs.dominant_cn_count)
    report.add("public-DNS CN certs", PAPER_DEANON_CERTS * scale, certs.deanonymizable_count)
    report.note(
        "abnormal port-55080 errors counted as open, per Section III methodology"
    )
    if scan.failures.total or scan.descriptor_refetches:
        report.add_failure_taxonomy(scan.failures, prefix="scan ")
        report.add("scan descriptor refetches", None, scan.descriptor_refetches)
    if pipeline.fault_profile != "none":
        report.note(
            f"fault profile '{pipeline.fault_profile}' active; "
            f"retries {'on' if pipeline.retry_policy else 'off'}"
        )
    return Fig1Result(
        distribution=distribution,
        descriptors_available=len(scan.descriptor_onions),
        report=report,
    )
