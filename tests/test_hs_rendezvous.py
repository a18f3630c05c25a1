"""Tests for repro.hs.rendezvous — end-to-end connection establishment."""

import pytest

from repro.client.client import TorClient
from repro.crypto.keys import KeyPair
from repro.hs.rendezvous import connect_to_service, RendezvousProtocol
from repro.hs.service import HiddenService
from repro.net.endpoint import ConnectOutcome, ServiceEndpoint
from repro.sim.clock import DAY
from repro.sim.rng import derive_rng


@pytest.fixture()
def rendezvous_world(network):
    """A published service with intro points plus a guard-equipped client."""
    rng = derive_rng(55, "rdv")
    service = HiddenService(
        keypair=KeyPair.generate(rng), online_from=0, operator_ip=0xAABBCCDD
    )
    service.host.add_endpoint(ServiceEndpoint(port=80, banner="hello"))
    protocol = RendezvousProtocol(network, None, rng)
    service.introduction_points = protocol.pick_introduction_points(
        network.consensus
    )
    protocol.register_service(service)
    network.publish_service(service)
    client = TorClient(ip=7, rng=derive_rng(55, "client"))
    client.refresh_guards(network)
    return network, service, client, rng


class TestIntroductionPoints:
    def test_three_points_chosen(self, network):
        protocol = RendezvousProtocol(network, None, derive_rng(1, "p"))
        points = protocol.pick_introduction_points(network.consensus)
        assert len(points) == 3
        assert len(set(points)) == 3

    def test_points_are_consensus_relays(self, network):
        protocol = RendezvousProtocol(network, None, derive_rng(2, "p"))
        for hex_fp in protocol.pick_introduction_points(network.consensus):
            assert network.consensus.entry_for(bytes.fromhex(hex_fp)) is not None


class TestConnect:
    def test_establishes_circuit(self, rendezvous_world):
        network, service, client, rng = rendezvous_world
        circuit = connect_to_service(network, client, service.onion, rng)
        assert circuit is not None
        assert circuit.onion == service.onion

    def test_client_guard_from_pinned_set(self, rendezvous_world):
        network, service, client, rng = rendezvous_world
        circuit = connect_to_service(network, client, service.onion, rng)
        assert circuit.client_guard in client.guards.fingerprints

    def test_service_guard_from_service_set(self, rendezvous_world):
        network, service, client, rng = rendezvous_world
        circuit = connect_to_service(network, client, service.onion, rng)
        assert circuit.service_guard in service.ensure_guards(network).fingerprints

    def test_rendezvous_point_distinct_from_guards(self, rendezvous_world):
        network, service, client, rng = rendezvous_world
        circuit = connect_to_service(network, client, service.onion, rng)
        assert circuit.rendezvous_point != circuit.client_guard
        assert circuit.rendezvous_point != circuit.service_guard

    def test_both_circuits_end_at_rendezvous_point(self, rendezvous_world):
        network, service, client, rng = rendezvous_world
        circuit = connect_to_service(network, client, service.onion, rng)
        assert circuit.client_circuit.last_hop == circuit.rendezvous_point
        assert circuit.service_circuit.last_hop == circuit.rendezvous_point

    def test_application_stream(self, rendezvous_world):
        network, service, client, rng = rendezvous_world
        circuit = connect_to_service(network, client, service.onion, rng)
        result = circuit.connect(network, 80, rng)
        assert result.outcome is ConnectOutcome.OPEN
        assert result.banner == "hello"

    def test_closed_port_refused_over_rendezvous(self, rendezvous_world):
        network, service, client, rng = rendezvous_world
        circuit = connect_to_service(network, client, service.onion, rng)
        assert circuit.connect(network, 81, rng).outcome is ConnectOutcome.REFUSED


class TestFailureModes:
    def test_no_descriptor(self, rendezvous_world):
        network, service, client, rng = rendezvous_world
        ghost = HiddenService(keypair=KeyPair.generate(rng))
        assert connect_to_service(network, client, ghost.onion, rng) is None

    def test_stale_descriptor_after_rotation(self, rendezvous_world):
        network, service, client, rng = rendezvous_world
        network.clock.advance_by(DAY + 3600)
        network.rebuild_consensus()
        client.refresh_guards(network)
        assert connect_to_service(network, client, service.onion, rng) is None

    def test_service_went_offline(self, rendezvous_world):
        network, service, client, rng = rendezvous_world
        service.online_until = network.clock.now  # dies now
        circuit = connect_to_service(network, client, service.onion, rng)
        assert circuit is None

    def test_vanished_introduction_points(self, rendezvous_world):
        network, service, client, rng = rendezvous_world
        # Kill every introduction point.
        for hex_fp in service.introduction_points:
            relay = network.relay_for_fingerprint(bytes.fromhex(hex_fp))
            relay.set_reachable(False, network.clock.now)
        network.clock.advance_by(3600)
        network.rebuild_consensus()
        client.refresh_guards(network)
        builder_rng = derive_rng(56, "retry")
        circuit = connect_to_service(network, client, service.onion, builder_rng)
        assert circuit is None

    def test_failure_reasons_recorded(self, rendezvous_world):
        network, service, client, rng = rendezvous_world
        from repro.client.circuits import CircuitBuilder

        protocol = RendezvousProtocol(
            network, CircuitBuilder(client.guards, rng), rng
        )
        ghost = HiddenService(keypair=KeyPair.generate(rng))
        protocol.connect(ghost.onion, client.guards)
        assert protocol.failures == ["no-descriptor"]
