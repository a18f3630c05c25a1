"""Tests for repro.tracking.deanon — the opportunistic client capture."""

import random
from collections import Counter

import pytest

from repro.client.client import TorClient
from repro.crypto.descriptor_id import REPLICAS, descriptor_id
from repro.crypto.keys import KeyPair
from repro.errors import AttackError
from repro.hs.service import HiddenService
from repro.relay.flags import RelayFlags
from repro.sim.rng import derive_rng
from repro.tornet import FetchTrace
from repro.tracking.deanon import ClientDeanonAttack, deploy_attacker_guards


def setup_attack(network, pool, target, watch_all=False):
    """Deploy guards, mark the responsible HSDirs as attacker-controlled."""
    guards = deploy_attacker_guards(
        network, 6, derive_rng(1, "g"), bandwidth=8000, address_pool=pool
    )
    network.rebuild_consensus(network.clock.now)
    network.publish_service(target)
    now = network.clock.now
    target_ids = {
        descriptor_id(target.onion, now, replica) for replica in range(REPLICAS)
    }
    hsdir_ids = set()
    for fp in network.responsible_set(target.onion):
        relay = network.relay_for_fingerprint(fp)
        hsdir_ids.add(relay.relay_id)
    attack = ClientDeanonAttack(
        hsdir_relay_ids=hsdir_ids,
        guard_fingerprints=frozenset(g.fingerprint for g in guards),
        target_descriptor_ids=None if watch_all else target_ids,
        rng=derive_rng(2, "sig"),
    )
    attack.attach(network)
    return attack, guards


def run_clients(network, target, count=120, fetches=3, seed=3):
    rng = derive_rng(seed, "clients")
    clients = []
    for i in range(count):
        client = TorClient(ip=rng.getrandbits(32), rng=derive_rng(seed, "c", str(i)))
        client.refresh_guards(network)
        clients.append(client)
    for client in clients:
        for _ in range(fetches):
            client.fetch_onion(network, target.onion)
    return clients


class TestClientDeanonAttack:
    def test_captures_subset_of_clients(self, network_and_pool):
        network, pool = network_and_pool
        target = HiddenService(
            keypair=KeyPair.generate(random.Random(50)), online_from=0
        )
        attack, guards = setup_attack(network, pool, target)
        run_clients(network, target)
        assert attack.signatures_injected > 0
        assert 0 < len(attack.captures) < attack.signatures_injected
        assert attack.false_positives == 0

    def test_captured_guard_is_attackers(self, network_and_pool):
        network, pool = network_and_pool
        target = HiddenService(
            keypair=KeyPair.generate(random.Random(51)), online_from=0
        )
        attack, guards = setup_attack(network, pool, target)
        run_clients(network, target)
        guard_fps = {g.fingerprint for g in guards}
        for capture in attack.captures:
            assert capture.guard_fingerprint in guard_fps

    def test_capture_rate_tracks_guard_share(self, network_and_pool):
        network, pool = network_and_pool
        target = HiddenService(
            keypair=KeyPair.generate(random.Random(52)), online_from=0
        )
        attack, guards = setup_attack(network, pool, target)
        run_clients(network, target, count=250)
        entries = network.consensus.with_flag(RelayFlags.GUARD)
        total_bw = sum(e.bandwidth for e in entries)
        attacker_bw = sum(
            e.bandwidth for e in entries if e.fingerprint in attack.guard_fingerprints
        )
        share = attacker_bw / total_bw
        rate = attack.capture_rate()
        assert abs(rate - share) < 0.6 * share + 0.05

    def test_untargeted_descriptors_ignored(self, network_and_pool):
        network, pool = network_and_pool
        target = HiddenService(
            keypair=KeyPair.generate(random.Random(53)), online_from=0
        )
        other = HiddenService(
            keypair=KeyPair.generate(random.Random(54)), online_from=0
        )
        attack, _ = setup_attack(network, pool, target)
        network.publish_service(other)
        injected_before = attack.signatures_injected
        client = TorClient(ip=1, rng=derive_rng(4, "c"))
        client.refresh_guards(network)
        client.fetch_onion(network, other.onion)
        # Only fetches that happen to hit the attacker's directories AND
        # target list inject; `other`'s directories are (wlog) different.
        assert attack.signatures_injected in (injected_before, injected_before)

    def test_visit_counts_separate_heavy_users(self, network_and_pool):
        """The Silk Road sellers-vs-buyers discriminator: per-IP visit
        frequency."""
        network, pool = network_and_pool
        target = HiddenService(
            keypair=KeyPair.generate(random.Random(55)), online_from=0
        )
        attack, guards = setup_attack(network, pool, target)
        # One "seller" visits 60×; buyers once each.
        seller = TorClient(ip=0xDEADBEEF, rng=derive_rng(5, "seller"))
        seller.refresh_guards(network)
        # Force the seller behind an attacker guard for determinism.
        seller.guards._slots[0].fingerprint = guards[0].fingerprint
        for _ in range(60):
            seller.fetch_onion(network, target.onion)
        run_clients(network, target, count=40, fetches=1, seed=6)
        counts = Counter(capture.client_ip for capture in attack.captures)
        assert counts.get(0xDEADBEEF, 0) >= 10
        assert max(counts.values()) == counts[0xDEADBEEF]

    def test_retarget(self, network_and_pool):
        network, pool = network_and_pool
        attack = ClientDeanonAttack(
            hsdir_relay_ids=set(), guard_fingerprints=frozenset()
        )
        attack.retarget({b"\x01" * 20})
        assert attack.target_descriptor_ids == {b"\x01" * 20}

    def test_guard_deployment_validation(self, network_and_pool):
        network, pool = network_and_pool
        with pytest.raises(AttackError):
            deploy_attacker_guards(network, 0, derive_rng(7, "g"), address_pool=pool)

    def test_deployed_guards_get_guard_flag(self, network_and_pool):
        network, pool = network_and_pool
        guards = deploy_attacker_guards(
            network, 3, derive_rng(8, "g"), address_pool=pool
        )
        consensus = network.rebuild_consensus(network.clock.now)
        for relay in guards:
            assert consensus.entry_for(relay.fingerprint).has(RelayFlags.GUARD)


OUR_HSDIR, OTHER_HSDIR = 7, 8
OUR_GUARD, OTHER_GUARD = b"\x01" * 20, b"\x02" * 20
TARGET, OTHER_ID = b"\xaa" * 20, b"\xbb" * 20


def fetch(client_ip, hsdir=OUR_HSDIR, guard=OUR_GUARD, desc_id=TARGET, time=0):
    return FetchTrace(
        time=time,
        client_ip=client_ip,
        guard_fingerprint=guard,
        hsdir_relay_id=hsdir,
        hsdir_fingerprint=b"\x03" * 20,
        descriptor_id=desc_id,
        found=True,
    )


class TestFetchClassification:
    """The per-fetch verdicts, fed synthetic traces instead of a network."""

    def make_attack(self):
        return ClientDeanonAttack(
            hsdir_relay_ids={OUR_HSDIR},
            guard_fingerprints=frozenset({OUR_GUARD}),
            target_descriptor_ids={TARGET},
        )

    def test_our_directory_and_our_guard_capture_the_client(self):
        attack = self.make_attack()
        attack._observe(fetch(client_ip=42, time=5))
        assert attack.signatures_injected == 1
        assert [(c.client_ip, c.time, c.guard_fingerprint) for c in attack.captures] == [
            (42, 5, OUR_GUARD)
        ]
        assert attack.capture_rate() == 1.0

    def test_a_foreign_guard_sees_the_signature_go_unread(self):
        attack = self.make_attack()
        attack._observe(fetch(client_ip=42, guard=OTHER_GUARD))
        assert attack.signatures_injected == attack.target_fetches_seen == 1
        assert attack.captures == []
        assert attack.capture_rate() == 0.0

    def test_a_foreign_directory_injects_nothing(self):
        attack = self.make_attack()
        attack._observe(fetch(client_ip=42, hsdir=OTHER_HSDIR))
        assert attack.signatures_injected == 0
        assert attack.captures == []

    def test_untargeted_descriptor_at_our_directory_is_ignored(self):
        attack = self.make_attack()
        attack._observe(fetch(client_ip=42, desc_id=OTHER_ID))
        assert attack.target_fetches_seen == 0
        assert attack.captures == []

    def test_unique_client_ips_collapse_repeat_visits(self):
        attack = self.make_attack()
        for time, ip in enumerate([42, 42, 43, 42]):
            attack._observe(fetch(client_ip=ip, time=time))
        assert attack.unique_client_ips == {42, 43}
        assert Counter(capture.client_ip for capture in attack.captures) == {
            42: 3,
            43: 1,
        }

    def test_capture_rate_is_zero_before_any_injection(self):
        assert self.make_attack().capture_rate() == 0.0
