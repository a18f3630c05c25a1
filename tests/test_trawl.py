"""Tests for repro.trawl — shadow fleet, coverage math, the attack."""

import pytest

from repro.errors import AttackError
from repro.hs.publisher import PublishScheduler
from repro.hsdir.directory import HSDirServer
from repro.population.generator import generate_population
from repro.relay.flags import RelayFlags
from repro.sim.clock import HOUR
from repro.sim.rng import derive_rng
from repro.trawl.attack import TrawlAttack, TrawlConfig
from repro.trawl.coverage import (
    CoverageTracker,
    expected_capture_probability,
    naive_ip_requirement,
)
from repro.trawl.harvest import RingHistory, HarvestResult
from repro.trawl.shadowing import ShadowFleet
from tests.conftest import make_network


class TestCoverageMath:
    def test_paper_footnote_3(self):
        """'an attacker would need to own more than 300 IP addresses' at the
        2013 ring size (~1,200 HSDirs)."""
        assert naive_ip_requirement(1200) == 300

    def test_scales_with_ring(self):
        assert naive_ip_requirement(2400) == 600

    def test_zero_ring(self):
        assert naive_ip_requirement(0) == 0

    def test_bad_parameters(self):
        with pytest.raises(AttackError):
            naive_ip_requirement(-1)
        with pytest.raises(AttackError):
            naive_ip_requirement(100, relays_per_ip=0)

    def test_capture_probability_monotone_in_waves(self):
        p1 = expected_capture_probability(100, 1000, waves=1)
        p4 = expected_capture_probability(100, 1000, waves=4)
        assert 0 < p1 < p4 < 1

    def test_capture_probability_saturates(self):
        assert expected_capture_probability(1000, 1000, waves=1) == 1.0

    def test_capture_probability_empty_ring_rejected(self):
        with pytest.raises(AttackError):
            expected_capture_probability(1, 0)


class TestCoverageTracker:
    def test_waves_accumulate_the_swept_positions(self):
        tracker = CoverageTracker()
        tracker.record_wave({1, 2, 3}, total_hsdirs=100)
        tracker.record_wave({3, 4}, total_hsdirs=100)
        assert tracker.positions_swept == {1, 2, 3, 4}
        assert tracker.waves_completed == 2

    def test_keeps_the_latest_ring_size(self):
        tracker = CoverageTracker()
        tracker.record_wave({1}, total_hsdirs=100)
        tracker.record_wave({2}, total_hsdirs=120)
        assert tracker.total_hsdirs == 120

    def test_an_empty_wave_still_counts(self):
        tracker = CoverageTracker()
        tracker.record_wave(set(), total_hsdirs=50)
        assert tracker.waves_completed == 1
        assert tracker.positions_swept == set()


class TestShadowFleet:
    def test_fleet_dimensions(self, network_and_pool):
        network, pool = network_and_pool
        fleet = ShadowFleet(network, ip_count=4, relays_per_ip=6,
                            rng=derive_rng(1, "f"), address_pool=pool)
        assert len(fleet.all_relays) == 24
        assert len(fleet.by_ip) == 4

    def test_only_two_per_ip_listed(self, network_and_pool):
        network, pool = network_and_pool
        fleet = ShadowFleet(network, ip_count=4, relays_per_ip=6,
                            rng=derive_rng(2, "f"), address_pool=pool)
        network.clock.advance_by(HOUR)
        network.rebuild_consensus()
        assert len(fleet.listed_relays()) == 8

    def test_rotation_brings_shadows_in(self, network_and_pool):
        network, pool = network_and_pool
        fleet = ShadowFleet(network, ip_count=2, relays_per_ip=6,
                            rng=derive_rng(3, "f"), address_pool=pool)
        network.clock.advance_by(HOUR)
        network.rebuild_consensus()
        first_wave = set(r.relay_id for r in fleet.listed_relays())
        fleet.rotate(network.clock.now)
        network.clock.advance_by(HOUR)
        network.rebuild_consensus()
        second_wave = set(r.relay_id for r in fleet.listed_relays())
        assert len(second_wave) == 4
        assert first_wave.isdisjoint(second_wave)

    def test_shadows_enter_with_hsdir_after_ripening(self, network_and_pool):
        network, pool = network_and_pool
        fleet = ShadowFleet(network, ip_count=2, relays_per_ip=4,
                            rng=derive_rng(4, "f"), address_pool=pool)
        for _ in range(26):
            network.clock.advance_by(HOUR)
            network.rebuild_consensus()
        fleet.rotate(network.clock.now)
        network.clock.advance_by(HOUR)
        network.rebuild_consensus()
        for relay in fleet.listed_relays():
            assert network.consensus.entry_for(relay.fingerprint).has(RelayFlags.HSDIR)

    def test_rotation_burns_exactly_the_listed_relays(self, network_and_pool):
        network, pool = network_and_pool
        fleet = ShadowFleet(network, ip_count=2, relays_per_ip=6,
                            rng=derive_rng(7, "f"), address_pool=pool)
        network.clock.advance_by(HOUR)
        network.rebuild_consensus()
        assert len(fleet.reachable_relays()) == 12
        retired = fleet.rotate(network.clock.now)
        assert len(retired) == 4
        reachable = fleet.reachable_relays()
        assert len(reachable) == 8
        assert not set(r.relay_id for r in retired) & set(r.relay_id for r in reachable)

    def test_rotation_with_nothing_listed_burns_nothing(self, network_and_pool):
        network, pool = network_and_pool
        fleet = ShadowFleet(network, ip_count=1, relays_per_ip=4,
                            rng=derive_rng(8, "f"), address_pool=pool)
        assert fleet.rotate(network.clock.now) == []
        assert len(fleet.reachable_relays()) == 4

    def test_degenerate_fleet_rejected(self, network_and_pool):
        network, pool = network_and_pool
        with pytest.raises(AttackError):
            ShadowFleet(network, ip_count=0, relays_per_ip=2,
                        rng=derive_rng(6, "f"), address_pool=pool)


class TestHarvestResult:
    def test_absorb_server(self):
        from repro.hsdir.directory import StoredDescriptor

        server = HSDirServer(relay_id=1)
        server.store(
            StoredDescriptor(
                descriptor_id=b"\x01" * 20, public_der=b"key", replica=0, published_at=0
            ),
            now=0,
        )
        server.fetch(b"\x01" * 20, now=1)
        server.fetch(b"\x02" * 20, now=2)
        harvest = HarvestResult()
        harvest.absorb_server(server, now=HOUR)
        assert harvest.descriptors_collected == 1
        assert len(harvest.onions) == 1
        assert harvest.total_requests == 2
        assert harvest.unique_requested_ids == 2
        assert harvest.requests_for(b"\x01" * 20) == 1
        assert harvest.requests_for(b"\x09" * 20) == 0


class TestRingHistory:
    def test_slot_weighting_counts_only_responsible_attackers(self):
        history = RingHistory()
        positions = sorted([100, 200, 300, 400])
        desc_id = (150).to_bytes(20, "big")
        # Hour 1: attacker at 200 (first follower of 150) → one of three slots.
        history.record(0, positions, {200})
        # Hour 2: attacker at 100 only (not among 3 followers of 150: 200,300,400).
        history.record(3600, positions, {100})
        assert history.slot_weighted_seconds(desc_id) == 3600 / 3

    def test_slot_weighting(self):
        history = RingHistory()
        positions = sorted([100, 200, 300, 400])
        desc_id = (150).to_bytes(20, "big")
        history.record(0, positions, {200, 300, 400})  # all three slots
        assert history.slot_weighted_seconds(desc_id) == 3600

    def test_normalized_rate_full_coverage(self):
        history = RingHistory()
        positions = sorted([100, 200, 300, 400])
        desc_id = (150).to_bytes(20, "big")
        for hour in range(2):
            history.record(hour * 3600, positions, {200, 300, 400})
        # 50 raw requests over a fully covered 2-hour window → rate 50.
        assert history.normalized_rate(desc_id, 30, 20) == pytest.approx(50.0)

    def test_normalized_rate_partial_coverage_scales_up(self):
        history = RingHistory()
        positions = sorted([100, 200, 300, 400])
        desc_id = (150).to_bytes(20, "big")
        history.record(0, positions, {200})  # 1 of 3 slots, 1 of 2 hours
        history.record(3600, positions, set())
        # A third of a slot-hour of observation in a 2-hour window → ×6.
        assert history.normalized_rate(desc_id, 10, 0) == pytest.approx(60.0)


class TestTrawlAttackEndToEnd:
    def test_harvest_collects_most_services(self):
        population = generate_population(seed=13, scale=0.01)
        network, pool = make_network(seed=31, relay_count=120)
        publisher = PublishScheduler(network, population.services)
        publisher.publish_initial(network.clock.now)
        attack = TrawlAttack(
            network,
            TrawlConfig(ip_count=8, relays_per_ip=16, ripen_hours=26, sweep_hours=8),
            derive_rng(14, "a"),
            pool,
        )
        harvest = attack.run(population.services, publisher)
        assert len(harvest.onions) >= 0.85 * len(population.records)
        assert harvest.total_requests == 0  # no client traffic in this run
        assert attack.coverage.waves_completed == 8
        # Every harvested onion is a real one (derived from key material).
        published = set(population.all_onions)
        assert harvest.onions <= published

    def test_config_validation(self):
        with pytest.raises(AttackError):
            TrawlConfig(ip_count=0)
        with pytest.raises(AttackError):
            TrawlConfig(ripen_hours=10)
        with pytest.raises(AttackError):
            TrawlConfig(sweep_hours=0)

    def test_double_deploy_rejected(self, network_and_pool):
        network, pool = network_and_pool
        attack = TrawlAttack(
            network, TrawlConfig(ip_count=2, relays_per_ip=4), derive_rng(15, "a"), pool
        )
        attack.deploy()
        with pytest.raises(AttackError):
            attack.deploy()
