"""Tests for repro.detection.silkroad — the full case study (reduced scale)."""

import pytest

from repro.detection.analyzer import TrackingAnalyzer
from repro.detection.silkroad import SilkroadStudy
from repro.detection.study import SilkroadStudyConfig
from repro.errors import AttackError
from repro.sim.clock import parse_date


@pytest.fixture(scope="module")
def world():
    """A 20%-scale build of the full 33-month study (module-scoped: ~2 s)."""
    return SilkroadStudy(SilkroadStudyConfig(scale=0.2, seed=5)).build()


@pytest.fixture(scope="module")
def yearly(world):
    analyzer = TrackingAnalyzer(world.archive)
    return {
        "year1": analyzer.analyze(
            world.silkroad_onion, parse_date("2011-02-01"), parse_date("2011-12-31")
        ),
        "year2": analyzer.analyze(
            world.silkroad_onion, parse_date("2012-01-01"), parse_date("2012-12-31")
        ),
        "year3": analyzer.analyze(
            world.silkroad_onion, parse_date("2013-01-01"), parse_date("2013-10-31")
        ),
    }


class TestWorldConstruction:
    def test_archive_spans_the_study(self, world):
        first, last = world.archive.span
        assert first <= parse_date("2011-02-02")
        assert last >= parse_date("2013-10-29")

    def test_ring_grows(self, world):
        early = world.archive.at(parse_date("2011-03-01")).hsdir_count
        late = world.archive.at(parse_date("2013-10-01")).hsdir_count
        assert late > early * 1.8  # 757 → 1,862 in the paper (scaled)

    def test_ground_truth_entities_present(self, world):
        assert set(world.ground_truth) == {
            "year1-oddity",
            "our-trackers",
            "may-episode",
            "aug-episode",
        }
        assert len(world.ground_truth["aug-episode"]) == 6
        aug_ips = {ip for ip, _ in world.ground_truth["aug-episode"]}
        assert len(aug_ips) == 3

    def test_campaign_windows_recorded(self, world):
        may_first, may_last = world.campaigns["may-episode"]
        assert parse_date("2013-05-20") <= may_first <= parse_date("2013-05-25")
        assert may_last <= parse_date("2013-06-04")

    def test_config_validation(self):
        with pytest.raises(AttackError):
            SilkroadStudyConfig(scale=0)
        with pytest.raises(AttackError):
            SilkroadStudyConfig(scale=0.001)


class TestYearlyFindings:
    def test_year1_no_likely_trackers(self, yearly):
        assert yearly["year1"].likely_trackers() == {}

    def test_year1_oddity_visible_via_fresh_fingerprints(self, world, yearly):
        oddity_servers = world.ground_truth["year1-oddity"]
        flagged = set(yearly["year1"].servers_with_flag("fresh-fingerprint"))
        assert oddity_servers & flagged

    def test_year2_detects_our_trackers(self, world, yearly):
        likely = set(yearly["year2"].likely_trackers())
        assert world.ground_truth["our-trackers"] <= likely

    def test_year3_detects_may_episode(self, world, yearly):
        likely = set(yearly["year3"].likely_trackers())
        may = world.ground_truth["may-episode"]
        assert may & likely  # the team is convicted (≥1 server flagged)

    def test_may_episode_is_ratio_extreme(self, world, yearly):
        extreme = set(yearly["year3"].servers_with_flag("ratio-extreme"))
        assert world.ground_truth["may-episode"] & extreme

    def test_aug_takeover_found(self, world, yearly):
        takeovers = yearly["year3"].full_takeovers()
        assert len(takeovers) >= 1
        _, servers = takeovers[0]
        assert set(servers) <= world.ground_truth["aug-episode"]

    def test_no_honest_server_convicted(self, world, yearly):
        injected = set()
        for servers in world.ground_truth.values():
            injected |= servers
        for year in ("year1", "year2", "year3"):
            for server in yearly[year].likely_trackers():
                assert server in injected

    def test_shared_nicknames_within_episodes(self, world, yearly):
        report = yearly["year3"]
        may = world.ground_truth["may-episode"]
        nicknames = set()
        for server in may:
            if server in report.servers:
                nicknames |= report.servers[server].nicknames
        stems = {name.rstrip("0123456789") for name in nicknames}
        assert len(stems) == 1  # "servers that share the same name"
