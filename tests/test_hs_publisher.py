"""Tests for repro.hs.publisher."""

import random

from repro.crypto.keys import KeyPair
from repro.hs.descriptor import make_stored_descriptors
from repro.hs.publisher import PublishScheduler
from repro.hs.service import HiddenService
from repro.hsdir.ring_view import responsible_for_replica
from repro.sim.clock import DAY, HOUR, parse_date
from repro.sim.rng import derive_rng
from repro.tornet import PublishTrace
from repro.trawl.shadowing import ShadowFleet
from tests.conftest import make_network


def make_services(count, online_from=0):
    rng = random.Random(7)
    return [
        HiddenService(keypair=KeyPair.generate(rng), online_from=online_from)
        for _ in range(count)
    ]


class TestPublishDue:
    def test_initial_publish_covers_online_services(self, network):
        services = make_services(5)
        scheduler = PublishScheduler(network, services)
        delivered = scheduler.publish_initial(network.clock.now)
        assert delivered == 5 * 6

    def test_no_republish_before_boundary(self, network):
        services = make_services(3)
        scheduler = PublishScheduler(network, services)
        scheduler.publish_initial(network.clock.now)
        assert scheduler.publish_due(network.clock.now + HOUR) == 0

    def test_republish_after_boundary(self, network):
        services = make_services(3)
        scheduler = PublishScheduler(network, services)
        scheduler.publish_initial(network.clock.now)
        network.clock.advance_by(DAY)
        network.rebuild_consensus()
        assert scheduler.publish_due(network.clock.now) == 3 * 6

    def test_offline_service_skipped(self, network):
        service = make_services(1)[0]
        service.online_until = network.clock.now + HOUR
        scheduler = PublishScheduler(network, [service])
        scheduler.publish_initial(network.clock.now)
        network.clock.advance_by(DAY)
        network.rebuild_consensus()
        assert scheduler.publish_due(network.clock.now) == 0


    def test_one_republish_per_period_over_three_days(self, network):
        services = make_services(2)
        scheduler = PublishScheduler(network, services)
        start = network.clock.now
        scheduler.publish_initial(start)
        for hour in range(1, 72 + 1):
            scheduler.publish_due(start + hour * HOUR)
        assert [service.publish_count for service in services] == [4, 4]

    def test_service_added_later_is_scheduled_before_it_publishes(self, network):
        first, late = make_services(2)
        scheduler = PublishScheduler(network, [first])
        scheduler.publish_initial(network.clock.now)
        scheduler.services.append(late)
        assert scheduler.publish_due(network.clock.now) == 0
        assert late.publish_count == 0
        scheduler.publish_due(network.clock.now + DAY)
        assert late.publish_count == 1

    def test_service_coming_online_publishes_at_its_next_boundary(self, network):
        service = make_services(1, online_from=network.clock.now + 2 * HOUR)[0]
        scheduler = PublishScheduler(network, [service])
        assert scheduler.publish_initial(network.clock.now) == 0
        boundary = service.next_publish_after(network.clock.now)
        # A boundary that passes while the service is still offline is
        # skipped; the next one, a period later, publishes.
        first = boundary if boundary >= service.online_from else boundary + DAY
        assert scheduler.publish_due(first - 1) == 0
        assert scheduler.publish_due(first) == 6
        assert service.publish_count == 1


class TestMaintain:
    def test_republish_when_responsible_set_changes(self, network_and_pool):
        """The behaviour the trawl exploits: a new HSDir in the right ring
        position pulls a fresh upload."""
        network, pool = network_and_pool
        service = make_services(1)[0]
        scheduler = PublishScheduler(network, [service])
        scheduler.publish_initial(network.clock.now)
        scheduler.maintain(network.clock.now)

        # Plant a relay that becomes responsible for the service's replica-0
        # descriptor (ground key just past the descriptor ID).
        from repro.crypto.descriptor_id import descriptor_id
        from repro.crypto.ring import RING_SIZE
        from repro.relay.relay import Relay

        desc = descriptor_id(service.onion, network.clock.now, 0)
        key = KeyPair.forge_near(
            derive_rng(1, "forge"),
            int.from_bytes(desc, "big"),
            RING_SIZE // 10**9,
        )
        intruder = Relay(
            nickname="intruder",
            ip=pool.allocate(),
            or_port=9001,
            keypair=key,
            bandwidth=500,
            started_at=network.clock.now - 2 * DAY,
        )
        network.add_relay(intruder)
        network.clock.advance_by(HOUR)
        network.rebuild_consensus()
        delivered = scheduler.maintain(network.clock.now)
        assert delivered >= 6  # responsible set changed → republished
        server = network.hsdir_server_for(intruder)
        assert server.publishes_received >= 1

    def test_maintain_idempotent_when_nothing_changes(self, network):
        services = make_services(2)
        scheduler = PublishScheduler(network, services)
        scheduler.publish_initial(network.clock.now)
        scheduler.maintain(network.clock.now)
        assert scheduler.maintain(network.clock.now) == 0


def upload_one_at_a_time(network, service, now, responsible_per_replica=None):
    """Reference upload: one ``store`` per directory, in per-service order
    (replica, then responsible directory), each trace emitted as its upload
    lands."""
    if not service.is_online(now):
        return 0
    observers = network._publish_observers
    guards = service.ensure_guards(network, network._publish_rng) if observers else None
    delivered = 0
    for stored in make_stored_descriptors(service.keypair, now):
        responsible = (
            responsible_per_replica[stored.replica]
            if responsible_per_replica is not None
            else responsible_for_replica(
                network.consensus, service.onion, now, stored.replica
            )
        )
        for fingerprint in responsible:
            relay = network.relay_for_fingerprint(fingerprint)
            if relay is None:
                continue
            network.hsdir_server_for(relay).store(stored, now)
            delivered += 1
            if guards is not None:
                trace = PublishTrace(
                    time=int(now),
                    onion=service.onion,
                    descriptor_id=stored.descriptor_id,
                    operator_ip=service.operator_ip,
                    guard_fingerprint=guards.pick() if guards.fingerprints else None,
                    hsdir_relay_id=relay.relay_id,
                    hsdir_fingerprint=fingerprint,
                )
                for observer in observers:
                    observer(trace)
    service.publish_count += 1
    return delivered


class ReferenceScheduler(PublishScheduler):
    """Reference :class:`PublishScheduler`: full scans of every service on
    every call, every online service placed again by ``maintain``, and
    uploads one ``store`` at a time in per-service order."""

    def publish_initial(self, now):
        delivered = 0
        for index, service in enumerate(self.services):
            delivered += upload_one_at_a_time(self.network, service, now)
            self._next_publish[index] = service.next_publish_after(now)
        return delivered

    def publish_due(self, now):
        delivered = 0
        for index, service in enumerate(self.services):
            due = self._next_publish.get(index)
            if due is not None and now >= due:
                delivered += upload_one_at_a_time(self.network, service, now)
            if due is None or now >= due:
                self._next_publish[index] = service.next_publish_after(now)
        return delivered

    def maintain(self, now):
        delivered = self.publish_due(now)
        online = [
            (index, service)
            for index, service in enumerate(self.services)
            if service.is_online(now)
        ]
        placements = self.network.responsible_replica_lists_batch(
            [service.onion for _, service in online], now
        )
        for (index, service), replica_lists in zip(online, placements):
            responsible = frozenset(fp for fps in replica_lists for fp in fps)
            if self._last_responsible.get(index) != responsible:
                delivered += upload_one_at_a_time(
                    self.network, service, now, replica_lists
                )
                self._last_responsible[index] = responsible
        return delivered


SWEEP_START = parse_date("2013-01-01")
SWEEP_HOURS = 36


def trace_fields(trace):
    """A trace as a tuple, without the relay ID: relay IDs come from a
    process-wide counter, so two sweeps' networks number relays apart
    (``hsdir_fingerprint`` names the directory)."""
    return tuple(
        getattr(trace, name)
        for name in PublishTrace.__slots__
        if name != "hsdir_relay_id"
    )


def trawl_sweep(scheduler_cls, relay_count=40, fleet=True, observe=False):
    """Hourly ``maintain`` through a shadow-relay sweep.

    With ``fleet``, shadow relays ripen into HSDir at 25 h and rotate every
    other hour from 27 h, so the ring moves.  Every service's period rolls
    once; service 1 goes offline at 6 h and comes back at 12 h.  Returns,
    per hour, the delivered count and service 0's publish count, then every
    directory's stored descriptors and upload counter, then the publish
    traces (with ``observe``; services then pick guards).
    """
    network, pool = make_network(seed=23, relay_count=relay_count, start=SWEEP_START)
    traces = []
    if observe:
        network.add_publish_observer(lambda trace: traces.append(trace_fields(trace)))
    services = make_services(30)
    rolling, flapper = services[0], services[1]
    shadows = (
        ShadowFleet(
            network,
            ip_count=3,
            relays_per_ip=10,
            rng=derive_rng(23, "fleet"),
            address_pool=pool,
        )
        if fleet
        else None
    )
    scheduler = scheduler_cls(network, services)
    hourly = [(scheduler.publish_initial(SWEEP_START), rolling.publish_count)]
    now = SWEEP_START
    for hour in range(1, SWEEP_HOURS + 1):
        now = SWEEP_START + hour * HOUR
        if shadows is not None and hour >= 27 and hour % 2:
            shadows.rotate(now)
        if hour == 6:
            flapper.online_until = now
        elif hour == 12:
            flapper.online_until = None
        network.rebuild_consensus(now)
        hourly.append((scheduler.maintain(now), rolling.publish_count))
    directories = [
        (relay.fingerprint, server.stored_descriptors(now), server.publishes_received)
        for relay in network.authority.monitored_relays
        for server in (network.hsdir_server_for(relay),)
    ]
    return hourly, directories, traces


class TestIncrementalMaintain:
    """The incremental, heap-driven, batched scheduler against
    :class:`ReferenceScheduler`: same counts, same stores in the same
    insertion order, same traces."""

    def test_matches_full_replacement_through_a_trawl_sweep(self):
        assert trawl_sweep(PublishScheduler) == trawl_sweep(ReferenceScheduler)

    def test_small_ring_puts_both_replicas_on_one_directory(self):
        sweep = trawl_sweep(PublishScheduler, relay_count=5, fleet=False)
        _, directories, _ = sweep
        assert len(directories) < 6
        replicas_per_upload = {}
        for fingerprint, descriptors, _ in directories:
            for stored in descriptors:
                upload = (fingerprint, stored.public_der, stored.published_at)
                replicas_per_upload.setdefault(upload, set()).add(stored.replica)
        assert {0, 1} in replicas_per_upload.values()
        assert sweep == trawl_sweep(ReferenceScheduler, relay_count=5, fleet=False)

    def test_publish_traces_follow_the_per_upload_order(self):
        sweep = trawl_sweep(PublishScheduler, observe=True)
        traces = sweep[2]
        assert len(traces) == sum(delivered for delivered, _ in sweep[0])
        assert any(guard is not None for *_, guard, _ in traces)
        assert sweep == trawl_sweep(ReferenceScheduler, observe=True)

    def test_period_roll_uploads_twice(self):
        """At its period roll a service uploads twice: ``publish_due`` sends
        the new period's descriptors, then ``maintain`` sends them again
        because the responsible set moved with the descriptor IDs."""
        hourly, _, _ = trawl_sweep(PublishScheduler)
        roll = make_services(1)[0].next_publish_after(SWEEP_START)
        hour = -(-(roll - SWEEP_START) // HOUR)
        assert hourly[hour][1] - hourly[hour - 1][1] == 2

