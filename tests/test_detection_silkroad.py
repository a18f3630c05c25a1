"""Tests for repro.detection.silkroad — the full case study (reduced scale)."""

import bisect

import pytest

from repro.detection.analyzer import TrackingAnalyzer
from repro.detection.silkroad import SilkroadStudy
from repro.detection.study import SilkroadStudyConfig
from repro.errors import AttackError
from repro.sim.clock import DAY, parse_date

YEARS = {
    "year1": ("2011-02-01", "2011-12-31"),
    "year2": ("2012-01-01", "2012-12-31"),
    "year3": ("2013-01-01", "2013-10-31"),
}


@pytest.fixture(scope="module")
def built():
    """A 20%-scale build of the full 33-month study (module-scoped: ~2 s),
    analysed as it is built; each consensus is recorded as
    ``(valid_after, hsdir_count)``."""
    study = SilkroadStudy(SilkroadStudyConfig(scale=0.2, seed=5))
    analyzer = TrackingAnalyzer(
        (study.silkroad_onion, parse_date(start), parse_date(end))
        for start, end in YEARS.values()
    )
    recorded = []

    def on_consensus(consensus):
        recorded.append((consensus.valid_after, consensus.hsdir_count))
        analyzer.observe(consensus)

    world = study.build(on_consensus=on_consensus)
    return world, analyzer, recorded


@pytest.fixture(scope="module")
def world(built):
    return built[0]


@pytest.fixture(scope="module")
def recorded(built):
    return built[2]


@pytest.fixture(scope="module")
def yearly(built):
    world, analyzer, _ = built
    return {
        year: analyzer.analyze(world.silkroad_onion, parse_date(start), parse_date(end))
        for year, (start, end) in YEARS.items()
    }


def hsdir_count_at(recorded, ts):
    """The ring size of the consensus in force at ``ts``."""
    index = bisect.bisect_right([valid_after for valid_after, _ in recorded], ts) - 1
    return recorded[index][1]


class TestWorldConstruction:
    def test_history_spans_the_study(self, recorded):
        first, last = recorded[0][0], recorded[-1][0]
        assert first <= parse_date("2011-02-02")
        assert last >= parse_date("2013-10-29")

    def test_history_is_strictly_ordered(self, recorded):
        times = [valid_after for valid_after, _ in recorded]
        assert times == sorted(set(times))

    def test_priming_consensus_is_handed_over(self, world, recorded):
        assert recorded[0][0] == world.config.start - DAY

    def test_build_without_a_callback_builds_the_same_world(self, world):
        again = SilkroadStudy(world.config).build()
        assert again.silkroad_onion == world.silkroad_onion
        assert again.ground_truth == world.ground_truth
        assert again.campaigns == world.campaigns

    def test_ring_grows(self, recorded):
        early = hsdir_count_at(recorded, parse_date("2011-03-01"))
        late = hsdir_count_at(recorded, parse_date("2013-10-01"))
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
