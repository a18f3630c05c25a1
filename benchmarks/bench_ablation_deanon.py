"""Ablation: client-capture rate vs attacker guard capacity.

The §VI attack is opportunistic — per fetch, P(capture) equals the
attacker's guard-selection probability.  Sweeping the attacker's guard
count verifies the linear relationship (and hence the cost model of
deanonymising Silk Road sellers)."""

from conftest import save_report

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_rows
from repro.experiments.fig3_geomap import run_fig3


def run_sweep():
    rows = []
    for guards in (4, 10, 20, 40):
        result = run_fig3(
            seed=9,
            honest_relays=600,
            attacker_guards=guards,
            client_count=2500,
            observation_days=2,
        )
        rows.append(
            (
                guards,
                round(result.attacker_guard_share, 4),
                round(result.capture_rate, 4),
                result.unique_clients,
            )
        )
    return rows


def test_ablation_deanon_guard_share(benchmark, report_dir):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    report = ExperimentReport(experiment="ablation-deanon")
    for guards, share, rate, clients in rows:
        report.add(f"capture rate @ {guards} guards", share, rate)
    table = format_rows(
        rows, headers=("attacker guards", "guard share", "capture rate", "clients")
    )
    save_report(report_dir, "ablation_deanon", report.format() + "\n\n" + table)

    shares = [share for _, share, _, _ in rows]
    rates = [rate for _, _, rate, _ in rows]
    # More guard capacity → strictly more capture.
    assert rates == sorted(rates)
    # Rate tracks share within 40% relative everywhere.
    for share, rate in zip(shares, rates):
        assert abs(rate - share) < 0.4 * share + 0.01
