"""Tests for repro.tornet — the network facade."""

import random

import pytest

from repro.crypto.keys import KeyPair
from repro.errors import SimulationError
from repro.hs.service import HiddenService
from repro.relay.relay import Relay
from repro.sim.clock import DAY, HOUR, parse_date
from repro.sim.rng import derive_rng
from repro.tornet import TorNetwork
from tests.conftest import make_network

FEB4 = parse_date("2013-02-04")


def make_service(seed=5):
    return HiddenService(keypair=KeyPair.generate(random.Random(seed)), online_from=0)


class TestConsensusLifecycle:
    def test_consensus_before_build_raises(self):
        with pytest.raises(SimulationError):
            TorNetwork().consensus

    def test_rebuild_advances_clock(self, network):
        t0 = network.clock.now
        network.clock.advance_by(HOUR)
        consensus = network.rebuild_consensus()
        assert consensus.valid_after == t0 + HOUR

    def test_relay_for_fingerprint(self, network):
        entry = network.consensus.entries[0]
        relay = network.relay_for_fingerprint(entry.fingerprint)
        assert relay is not None
        assert relay.fingerprint == entry.fingerprint

    def test_hsdir_server_for_unknown_relay_raises(self, network):
        stranger = Relay(
            nickname="x",
            ip=1,
            or_port=1,
            keypair=KeyPair.generate(random.Random(123)),
            bandwidth=1,
            started_at=0,
        )
        with pytest.raises(SimulationError):
            network.hsdir_server_for(stranger)


class TestPublishFetch:
    def test_publish_reaches_six_directories(self, network):
        service = make_service()
        assert network.publish_service(service) == 6

    def test_offline_service_not_published(self, network):
        service = make_service()
        service.online_until = 1  # dead long ago
        assert network.publish_service(service) == 0

    def test_fetch_returns_published_descriptor(self, network):
        service = make_service()
        network.publish_service(service)
        rng = derive_rng(1, "fetch")
        stored = network.fetch_onion(service.onion, rng)
        assert stored is not None
        assert stored.public_der == service.keypair.public_der

    def test_fetch_unpublished_returns_none(self, network):
        rng = derive_rng(1, "fetch")
        assert network.fetch_onion(make_service(99).onion, rng) is None

    def test_descriptor_expires_across_periods(self, network):
        service = make_service()
        network.publish_service(service)
        network.clock.advance_by(DAY + HOUR)
        network.rebuild_consensus()
        rng = derive_rng(1, "fetch")
        assert network.fetch_onion(service.onion, rng) is None
        assert not network.descriptor_available(service.onion, network.clock.now)

    def test_republish_restores_availability(self, network):
        service = make_service()
        network.publish_service(service)
        network.clock.advance_by(DAY + HOUR)
        network.rebuild_consensus()
        network.publish_service(service)
        assert network.descriptor_available(service.onion, network.clock.now)

    def test_responsible_set_has_six_members(self, network):
        service = make_service()
        assert len(network.responsible_set(service.onion)) == 6

    def test_fetch_requests_are_logged_at_directories(self, network):
        service = make_service()
        network.publish_service(service)
        rng = derive_rng(2, "fetch")
        network.fetch_onion(service.onion, rng)
        total = sum(
            server.total_requests for server in network._hsdir_servers.values()
        )
        assert total >= 1

    def test_availability_probe_not_logged(self, network):
        service = make_service()
        network.publish_service(service)
        network.descriptor_available(service.onion, network.clock.now)
        total = sum(
            server.total_requests for server in network._hsdir_servers.values()
        )
        assert total == 0


class TestFetchObservers:
    def test_observer_sees_traces(self, network):
        service = make_service()
        network.publish_service(service)
        traces = []
        network.add_fetch_observer(traces.append)
        rng = derive_rng(3, "fetch")
        network.fetch_descriptor_id(
            service.current_descriptors(network.clock.now)[0].descriptor_id,
            rng,
            client_ip=42,
        )
        assert traces
        assert traces[0].client_ip == 42
        assert traces[0].found

    def test_phantom_fetch_probes_all_three(self, network):
        traces = []
        network.add_fetch_observer(traces.append)
        rng = derive_rng(4, "fetch")
        network.fetch_descriptor_id(b"\x13" * 20, rng)
        assert len(traces) == 3
        assert all(not trace.found for trace in traces)


def stored_by_relay(network):
    """What each listed relay's directory holds, keyed by fingerprint."""
    return {
        fingerprint: sorted(
            (d.descriptor_id, d.replica)
            for d in network.hsdir_server_for(relay).stored_descriptors(
                network.clock.now
            )
        )
        for fingerprint, relay in network._relays_by_fingerprint.items()
    }


class TestPublishServices:
    def make_services(self):
        services = [make_service(seed) for seed in (11, 12, 13, 14)]
        services[2].online_until = 1  # offline long before the clock
        return services

    def test_batch_matches_one_upload_at_a_time(self):
        batched, _ = make_network(seed=31)
        single, _ = make_network(seed=31)
        batch_services, single_services = self.make_services(), self.make_services()
        delivered = batched.publish_services(
            [(service, None, None) for service in batch_services]
        )
        assert delivered == sum(
            single.publish_service(service) for service in single_services
        )
        assert any(stored_by_relay(batched).values())
        assert stored_by_relay(batched) == stored_by_relay(single)
        assert [s.publish_count for s in batch_services] == [
            s.publish_count for s in single_services
        ]

    def test_offline_jobs_are_skipped(self, network):
        services = self.make_services()
        delivered = network.publish_services([(s, None, None) for s in services])
        assert delivered == 3 * 6
        assert [s.publish_count for s in services] == [1, 1, 0, 1]

    def test_handed_in_placement_reaches_the_same_directories(self):
        derived, _ = make_network(seed=32)
        handed, _ = make_network(seed=32)
        services = self.make_services()
        placements = handed.responsible_replica_lists_batch(
            [service.onion for service in services]
        )
        derived.publish_services([(s, None, None) for s in services])
        handed.publish_services(
            [(s, lists, None) for s, lists in zip(services, placements)]
        )
        assert any(stored_by_relay(derived).values())
        assert stored_by_relay(derived) == stored_by_relay(handed)

    def test_empty_batch_delivers_nothing(self, network):
        assert network.publish_services([]) == 0
        assert all(stored == [] for stored in stored_by_relay(network).values())

    def test_publish_observer_sees_every_delivery(self, network):
        traces = []
        network.add_publish_observer(traces.append)
        service = make_service()
        delivered = network.publish_services([(service, None, None)])
        assert len(traces) == delivered == 6
        assert {t.hsdir_fingerprint for t in traces} == network.responsible_set(
            service.onion
        )
        assert all(t.onion == service.onion for t in traces)
