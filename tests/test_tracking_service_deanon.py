"""Tests for repro.tracking.service_deanon — the §II.B operator attack."""

import pytest

from repro.crypto.keys import KeyPair
from repro.hs.service import HiddenService
from repro.net.endpoint import ServiceEndpoint
from repro.sim.clock import DAY
from repro.sim.rng import derive_rng
from repro.tracking.deanon import deploy_attacker_guards
from repro.tracking.service_deanon import ServiceDeanonAttack


@pytest.fixture()
def staged(network_and_pool):
    """A target service, attacker guards, and attacker-owned HSDirs."""
    network, pool = network_and_pool
    rng = derive_rng(66, "svc")
    service = HiddenService(
        keypair=KeyPair.generate(rng), online_from=0, operator_ip=0xDEAD1001
    )
    service.host.add_endpoint(ServiceEndpoint(port=80))
    guards = deploy_attacker_guards(
        network, 8, derive_rng(66, "g"), bandwidth=9000, address_pool=pool
    )
    network.rebuild_consensus(network.clock.now)
    hsdir_ids = {
        network.relay_for_fingerprint(fp).relay_id
        for fp in network.responsible_set(service.onion)
    }
    attack = ServiceDeanonAttack(
        hsdir_relay_ids=hsdir_ids,
        guard_fingerprints=frozenset(g.fingerprint for g in guards),
        target_onions={service.onion},
        rng=derive_rng(66, "sig"),
    )
    attack.attach(network)
    return network, service, guards, attack


class TestServiceDeanonAttack:
    def test_publishes_observed_at_attacker_directories(self, staged):
        network, service, guards, attack = staged
        network.publish_service(service)
        assert attack.target_publishes_seen >= 1
        assert attack.signatures_injected == attack.target_publishes_seen

    def test_capture_requires_attacker_guard(self, staged):
        network, service, guards, attack = staged
        # Pin the service behind an attacker guard.
        service.ensure_guards(network)
        service._guards._slots[0].fingerprint = guards[0].fingerprint
        for _ in range(20):
            network.publish_service(service)
        assert attack.captures
        assert attack.ip_of(service.onion) == 0xDEAD1001

    def test_no_capture_without_attacker_guard(self, staged):
        network, service, guards, attack = staged
        guard_fps = {g.fingerprint for g in guards}
        service.ensure_guards(network)
        # Evict any attacker guard from the service's set.
        honest = [
            entry.fingerprint
            for entry in network.consensus.entries
            if entry.fingerprint not in guard_fps
        ]
        for slot, replacement in zip(service._guards._slots, honest):
            if slot.fingerprint in guard_fps:
                slot.fingerprint = replacement
        for _ in range(20):
            network.publish_service(service)
        assert not attack.captures

    def test_untargeted_service_ignored(self, staged):
        network, service, guards, attack = staged
        rng = derive_rng(67, "other")
        other = HiddenService(
            keypair=KeyPair.generate(rng), online_from=0, operator_ip=0x5
        )
        injected_before = attack.signatures_injected
        network.publish_service(other)
        assert attack.signatures_injected == injected_before
        assert attack.ip_of(other.onion) is None

    def test_no_false_positives_from_honest_publishes(self, staged):
        network, service, guards, attack = staged
        rng = derive_rng(68, "bulk")
        bulk = [
            HiddenService(keypair=KeyPair.generate(rng), online_from=0)
            for _ in range(30)
        ]
        for svc in bulk:
            network.publish_service(svc)
        assert attack.false_positives == 0

    def test_guard_rotation_eventually_captures(self, staged):
        """The waiting game: across guard rotations the attacker's share
        keeps getting re-rolled, so captures arrive with time."""
        network, service, guards, attack = staged
        captured = False
        for cycle in range(30):
            # Force a full guard expiry between cycles.
            service._guards = None
            network.clock.advance_by(61 * DAY)
            network.rebuild_consensus()
            # The attacker re-positions onto the target's *current*
            # responsible set (descriptor IDs rotated with the calendar).
            attack.hsdir_relay_ids = {
                network.relay_for_fingerprint(fp).relay_id
                for fp in network.responsible_set(service.onion)
            }
            network.publish_service(service)
            if attack.captures:
                captured = True
                break
        assert captured

    def test_deanonymized_services_listing(self, staged):
        network, service, guards, attack = staged
        service.ensure_guards(network)
        service._guards._slots[0].fingerprint = guards[0].fingerprint
        for _ in range(10):
            network.publish_service(service)
        assert service.onion in attack.deanonymized_services
