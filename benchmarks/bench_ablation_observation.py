"""Ablation: the popularity observation floor.

EXPERIMENTS.md documents that our rotating attacker resolves fewer onions
than the paper's near-full-takeover vantage because services below a few
requests per 2 hours fall under the observation floor.  This ablation
quantifies the claim: sweeping the traffic volume (thinning) at fixed
coverage, the resolved-onion count should rise toward the planted number
of requested onions while per-service *rates* stay calibrated throughout.
"""

from conftest import save_report

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_rows
from repro.experiments.table2_popularity import run_table2
from repro.population.generator import generate_population

SCALE = 0.1


def run_sweep():
    rows = []
    for thinning in (0.25, 0.5, 1.0):
        population = generate_population(seed=5, scale=SCALE)
        result = run_table2(
            seed=5,
            population=population,
            sweep_hours=8,
            rotation_interval_hours=1,
            relays_per_ip=20,
            thinning=thinning,
        )
        planted_requested = len(population.tail_onions) + len(
            [
                label
                for label, _ in population.spec.named_rates
                if label in population.named_onions
            ]
        )
        goldnet_row = result.ranking.row_for(
            population.named_onions["goldnet-1"]
        )
        planted_rate = dict(population.spec.named_rates)["goldnet-1"]
        rows.append(
            (
                thinning,
                result.resolution.resolved_onion_count,
                planted_requested,
                goldnet_row.requests if goldnet_row else 0,
                planted_rate,
            )
        )
    return rows


def test_ablation_observation_floor(benchmark, report_dir):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    report = ExperimentReport(experiment="ablation-observation-floor")
    for thinning, resolved, planted, rate, planted_rate in rows:
        report.add(f"resolved onions @ thinning {thinning}", planted, resolved)
        report.add(f"goldnet-1 rate @ thinning {thinning}", planted_rate, rate)
    table = format_rows(
        rows,
        headers=(
            "thinning",
            "resolved onions",
            "requested (planted)",
            "goldnet-1 rate",
            "planted rate",
        ),
    )
    save_report(report_dir, "ablation_observation", report.format() + "\n\n" + table)

    resolved_counts = [resolved for _, resolved, _, _, _ in rows]
    # More traffic → more of the tail clears the observation floor.
    assert resolved_counts == sorted(resolved_counts)
    # Rates stay calibrated (within 40%) across the whole sweep: thinning
    # changes variance, not bias.
    for thinning, _, _, rate, planted_rate in rows:
        assert abs(rate - planted_rate) < 0.4 * planted_rate, (thinning, rate)
