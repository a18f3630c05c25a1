"""Failure injection: the pipeline must degrade, not break.

The paper's measurements ran against a hostile substrate — churning hosts,
flapping relays, timeouts "we were persistently getting" — so every
component is exercised here under the corresponding failure.
"""

import random

import pytest

from repro.client.client import TorClient
from repro.client.guards import GuardSet
from repro.crypto.keys import KeyPair
from repro.hs.publisher import PublishScheduler
from repro.hs.service import HiddenService
from repro.net.endpoint import ConnectOutcome, ServiceEndpoint, SimpleHost
from repro.net.transport import OnionRegistry, TorTransport
from repro.population.generator import generate_population
from repro.relay.relay import Relay
from repro.scan.scanner import PortScanner
from repro.scan.schedule import ScanSchedule
from repro.sim.clock import DAY, HOUR
from repro.sim.rng import derive_rng
from repro.tornet import TorNetwork
from repro.trawl.attack import TrawlAttack, TrawlConfig
from tests.conftest import make_network


class TestHonestChurnDuringHarvest:
    def test_harvest_survives_relay_deaths_mid_sweep(self):
        """A third of the honest ring dies during the sweep; the attack
        keeps collecting (coverage may even improve as the ring shrinks)."""
        population = generate_population(seed=41, scale=0.01)
        network, pool = make_network(seed=41, relay_count=120)
        publisher = PublishScheduler(network, population.services)
        publisher.publish_initial(network.clock.now)
        attack = TrawlAttack(
            network,
            TrawlConfig(ip_count=8, relays_per_ip=16, ripen_hours=26, sweep_hours=8),
            derive_rng(41, "a"),
            pool,
        )

        victims = iter(network.authority.monitored_relays[:40])

        def kill_a_few(sweep_hour, now):
            for _ in range(5):
                relay = next(victims, None)
                if relay is not None:
                    relay.set_reachable(False, now)

        harvest = attack.run(population.services, publisher, hour_hook=kill_a_few)
        assert len(harvest.onions) >= 0.8 * len(population.records)

    def test_services_dying_mid_harvest_are_partially_collected(self):
        population = generate_population(seed=42, scale=0.01)
        # Kill half the services before the sweep even starts.
        for record in population.records[::2]:
            record.service.online_until = population.harvest_date - 3 * DAY
        network, pool = make_network(seed=42, relay_count=100)
        publisher = PublishScheduler(network, population.services)
        publisher.publish_initial(network.clock.now)
        attack = TrawlAttack(
            network,
            TrawlConfig(ip_count=6, relays_per_ip=12, ripen_hours=26, sweep_hours=6),
            derive_rng(42, "a"),
            pool,
        )
        harvest = attack.run(population.services, publisher)
        alive = sum(
            1
            for record in population.records
            if record.service.is_online(network.clock.now)
        )
        assert len(harvest.onions) <= len(population.records)
        assert len(harvest.onions) >= 0.7 * alive


class TestFlappingRelays:
    def test_hsdir_flag_lost_and_descriptors_rehomed(self, network):
        service = HiddenService(
            keypair=KeyPair.generate(random.Random(43)), online_from=0
        )
        scheduler = PublishScheduler(network, [service])
        scheduler.publish_initial(network.clock.now)
        before = network.responsible_set(service.onion)
        # Flap every current responsible relay.
        for fingerprint in before:
            relay = network.relay_for_fingerprint(fingerprint)
            relay.set_reachable(False, network.clock.now)
        network.clock.advance_by(HOUR)
        network.rebuild_consensus()
        scheduler.maintain(network.clock.now)
        after = network.responsible_set(service.onion)
        assert before.isdisjoint(after)
        # The service is still fetchable from the new responsible set.
        rng = derive_rng(43, "f")
        assert network.fetch_onion(service.onion, rng) is not None

    def test_flapped_relay_returns_without_hsdir(self, network):
        relay = network.authority.monitored_relays[0]
        relay.set_reachable(False, network.clock.now)
        network.clock.advance_by(HOUR)
        network.rebuild_consensus()
        relay.set_reachable(True, network.clock.now)
        network.clock.advance_by(HOUR)
        consensus = network.rebuild_consensus()
        entry = consensus.entry_for(relay.fingerprint)
        from repro.relay.flags import RelayFlags

        assert entry is not None
        assert not entry.has(RelayFlags.HSDIR)  # 25-hour clock restarted


class TestDegenerateWorlds:
    def test_scan_of_fully_dead_population(self):
        registry = OnionRegistry()
        host = SimpleHost(online_from=0, online_until=1)  # long dead
        from repro.crypto.onion import onion_address_from_key

        onion = onion_address_from_key(b"deceased")
        registry.register(onion, host)
        transport = TorTransport(registry, derive_rng(44, "t"))
        schedule = ScanSchedule(start=10 * DAY, days=2)
        results = PortScanner(transport).run([onion], schedule)
        assert results.total_open_ports == 0
        assert results.port_distribution().as_rows()[-1] == ("other", 0)

    def test_fetch_against_empty_ring(self):
        """A network whose relays are all too young to be HSDirs."""
        network = TorNetwork()
        rng = derive_rng(45, "young")
        from repro.net.address import AddressPool

        pool = AddressPool(derive_rng(45, "ips"))
        for index in range(10):
            network.add_relay(
                Relay(
                    nickname=f"baby{index}",
                    ip=pool.allocate(),
                    or_port=9001,
                    keypair=KeyPair.generate(rng),
                    bandwidth=1000,
                    started_at=0,
                )
            )
        network.rebuild_consensus(HOUR)  # 1 h uptime: nobody is an HSDir
        assert network.consensus.hsdir_count == 0
        service = HiddenService(keypair=KeyPair.generate(rng), online_from=0)
        assert network.publish_service(service) == 0
        assert network.fetch_onion(service.onion, rng) is None

    def test_guards_with_no_guard_flagged_relays(self):
        network = TorNetwork()
        rng = derive_rng(46, "young")
        from repro.net.address import AddressPool

        pool = AddressPool(derive_rng(46, "ips"))
        for index in range(5):
            network.add_relay(
                Relay(
                    nickname=f"n{index}",
                    ip=pool.allocate(),
                    or_port=9001,
                    keypair=KeyPair.generate(rng),
                    bandwidth=10,  # too slow for Guard
                    started_at=0,
                )
            )
        network.rebuild_consensus(30 * DAY)
        guards = GuardSet(derive_rng(46, "g"))
        guards.refresh(network.consensus, network.clock.now)
        assert guards.fingerprints == []  # empty set, no crash

    def test_client_fetch_without_guards_still_fetches(self, network):
        service = HiddenService(
            keypair=KeyPair.generate(random.Random(47)), online_from=0
        )
        network.publish_service(service)
        client = TorClient(ip=9, rng=derive_rng(47, "c"))
        # never refresh_guards
        assert client.fetch_onion(network, service.onion) is not None


class TestLossyTransport:
    def test_crawler_survives_circuit_timeouts(self, small_population):
        from repro.crawl.crawler import Crawler
        from repro.crawl.page import PageKind

        transport = TorTransport(
            small_population.registry,
            derive_rng(48, "t"),
            descriptor_available=small_population.descriptor_available,
            circuit_timeout_probability=0.5,
        )
        crawler = Crawler(transport)
        destinations = [
            (record.onion, 80)
            for record in small_population.records_in_group("http-content")[:60]
        ]
        results = crawler.crawl(destinations, small_population.crawl_date)
        dead = len(results.by_kind(PageKind.DEAD))
        # Roughly half the attempts die to timeouts; the rest still parse.
        assert 0.3 * len(destinations) <= dead <= 0.7 * len(destinations)
        assert results.connected == len(destinations) - dead

    def test_scanner_records_timeouts_separately(self):
        registry = OnionRegistry()
        from repro.crypto.onion import onion_address_from_key

        onion = onion_address_from_key(b"flaky")
        host = SimpleHost(online_from=0)
        host.add_endpoint(ServiceEndpoint(port=80, timeout_probability=1.0))
        registry.register(onion, host)
        transport = TorTransport(registry, derive_rng(49, "t"))
        results = PortScanner(transport).run(
            [onion], ScanSchedule(start=0, days=1)
        )
        assert results.timeouts >= 1
        assert results.total_open_ports == 0
        assert (
            transport.connect(onion, 80, now=0).outcome is ConnectOutcome.TIMEOUT
        )


class TestSchedulerResilience:
    def test_maintain_with_service_that_dies_between_calls(self, network):
        service = HiddenService(
            keypair=KeyPair.generate(random.Random(50)),
            online_from=0,
            online_until=network.clock.now + HOUR,
        )
        scheduler = PublishScheduler(network, [service])
        scheduler.publish_initial(network.clock.now)
        network.clock.advance_by(2 * HOUR)
        network.rebuild_consensus()
        assert scheduler.publish_due(network.clock.now + DAY) == 0
        # maintain() also skips it.
        assert scheduler.maintain(network.clock.now) == 0

    def test_rotation_interval_longer_than_sweep(self, network_and_pool):
        """Degenerate-but-legal config: a single wave, no rotation."""
        network, pool = network_and_pool
        population = generate_population(seed=51, scale=0.005)
        publisher = PublishScheduler(network, population.services)
        publisher.publish_initial(network.clock.now)
        attack = TrawlAttack(
            network,
            TrawlConfig(
                ip_count=4,
                relays_per_ip=4,
                ripen_hours=26,
                sweep_hours=2,
                rotation_interval_hours=10,
            ),
            derive_rng(51, "a"),
            pool,
        )
        harvest = attack.run(population.services, publisher)
        # One wave of 8 relays: partial but non-empty coverage.
        assert 0 < len(harvest.onions) <= len(population.records)
