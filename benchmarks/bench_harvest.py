"""Bench: the shadow-relay harvest itself (§§I–II claims).

Run at 25% world scale with the paper's 58 IPs: the harvest must collect
essentially the whole population, while the naive (consensus-limited)
attacker needs ~ring/4 IP addresses.
"""

from conftest import save_report

from repro.experiments.harvest import run_harvest


def test_harvest_shadow_relays(benchmark, report_dir):
    result = benchmark.pedantic(
        lambda: run_harvest(
            seed=0, scale=0.25, ip_count=58, relays_per_ip=24, sweep_hours=12
        ),
        rounds=1,
        iterations=1,
    )
    save_report(report_dir, "harvest", result.report.format())

    benchmark.extra_info["onions"] = len(result.harvest.onions)
    benchmark.extra_info["coverage"] = round(result.harvest_fraction, 4)

    assert result.harvest_fraction >= 0.97
    # The flaw's leverage: ~6× fewer IPs than the naive attack at this ring
    # size (paper: 58 vs >300 at the 2013 ring).
    assert result.naive_ips_needed >= result.hsdir_count / 5
    assert 58 < result.naive_ips_needed
