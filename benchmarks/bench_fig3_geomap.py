"""Bench: regenerate Fig 3 (client geography of a popular hidden service)."""

from conftest import save_report

from repro.analysis.stats import l1_distance
from repro.experiments.fig3_geomap import run_fig3


def test_fig3_client_geomap(benchmark, report_dir):
    result = benchmark.pedantic(
        lambda: run_fig3(
            seed=0,
            honest_relays=1200,
            attacker_guards=20,
            client_count=6000,
            observation_days=3,
            fetches_per_client_per_day=4.0,
        ),
        rounds=1,
        iterations=1,
    )
    text = result.report.format() + "\n\n" + result.format_map()
    save_report(report_dir, "fig3_geomap", text)

    benchmark.extra_info["unique_clients"] = result.unique_clients
    benchmark.extra_info["capture_rate"] = round(result.capture_rate, 4)

    # The attack is opportunistic: capture rate ≈ attacker guard share.
    assert result.unique_clients > 200
    assert (
        abs(result.capture_rate - result.attacker_guard_share)
        < 0.35 * result.attacker_guard_share
    )
    # The recovered geography matches the true client mix.
    assert l1_distance(result.true_country_shares, result.geomap.shares()) < 0.25
    # Many countries on the map, biggest populations first.
    assert result.geomap.country_count >= 25
