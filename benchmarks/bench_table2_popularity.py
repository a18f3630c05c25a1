"""Bench: regenerate Table II (popularity ranking) + §V aggregates.

The heaviest experiment: full trawl + interleaved client traffic.  Traffic
is Poisson-thinned 2× (un-thinned in reporting — see run_table2) to keep
the bench to a few minutes; rates, rankings and fractions are unaffected.
"""

from conftest import save_report

from repro.experiments.table2_popularity import run_table2


def test_table2_popularity(benchmark, report_dir):
    result = benchmark.pedantic(
        lambda: run_table2(
            seed=0,
            scale=1.0,
            sweep_hours=12,
            rotation_interval_hours=1,
            relays_per_ip=26,
            thinning=0.5,
        ),
        rounds=1,
        iterations=1,
    )
    text = result.report.format() + "\n\n" + result.ranking.format_table(limit=35)
    save_report(report_dir, "table2_popularity", text)

    benchmark.extra_info["resolved_onions"] = result.resolution.resolved_onion_count
    benchmark.extra_info["unique_ids"] = result.unique_ids_observed

    ranking = result.ranking

    # The head: Goldnet fronts dominate, on two physical machines.
    top5_descriptions = {row.description for row in ranking.top(5)}
    assert top5_descriptions == {"Goldnet"}
    assert len({f.server_group for f in result.goldnet_findings}) == 2
    assert len(result.goldnet_findings) >= 8  # 9 fronts, scan noise allowed

    # Skynet cluster sits between ranks ~8 and ~30 (paper: 10–28).
    skynet_ranks = [row.rank for row in ranking.rows_matching("Skynet")]
    assert skynet_ranks and min(skynet_ranks) >= 6 and max(skynet_ranks) <= 50

    # Spot ranks: Silk Road ~18, BMR ~62, DuckDuckGo ~157, TorHost ~547.
    # Mid-table rank estimates carry high variance: a service's rate is
    # estimated from the few hours its descriptor IDs were covered.
    assert 10 <= result.rank_of_label("silkroad") <= 30
    assert 30 <= result.rank_of_label("blackmarket-reloaded") <= 180
    assert 90 <= result.rank_of_label("duckduckgo") <= 320
    assert result.rank_of_label("torhost-main") >= 300

    # §V aggregates: phantom-dominated traffic, partial resolution.
    assert result.resolution.phantom_request_fraction > 0.7
    resolution = result.resolution
    assert resolution.resolved_ids < resolution.total_unique_ids / 2
    # The paper resolved 3,140 onions with essentially full ring coverage;
    # our rotating attacker holds ~1/3 of a replica's slots for ~45% of the
    # sweep, so services below ~3 requests/2h fall under the observation
    # floor (documented in EXPERIMENTS.md).
    assert 1_600 <= resolution.resolved_onion_count <= 4_200
