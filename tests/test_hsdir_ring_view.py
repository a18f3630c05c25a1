"""Tests for repro.hsdir.ring_view — responsible directory computation."""

from repro.crypto.descriptor_id import REPLICAS, descriptor_id
from repro.crypto.onion import onion_address_from_key
from repro.hsdir.ring_view import (
    responsible_for_replica,
    responsible_hsdirs,
    responsible_replica_lists_for_ids,
)
from repro.relay.flags import RelayFlags
from repro.sim.clock import DAY, parse_date

ONION = onion_address_from_key(b"a-service")
FEB4 = parse_date("2013-02-04")


class TestResponsibleHsdirs:
    def test_six_directories_total(self, network):
        result = responsible_hsdirs(network.consensus, ONION, FEB4)
        assert len(result) == REPLICAS * 3

    def test_replicas_usually_disjoint(self, network):
        a = responsible_for_replica(network.consensus, ONION, FEB4, 0)
        b = responsible_for_replica(network.consensus, ONION, FEB4, 1)
        # With 100+ HSDirs the two replica sets colliding is ~impossible.
        assert not (set(a) & set(b))

    def test_all_carry_hsdir_flag(self, network):
        for fp in responsible_hsdirs(network.consensus, ONION, FEB4):
            entry = network.consensus.entry_for(fp)
            assert entry is not None
            assert entry.has(RelayFlags.HSDIR)

    def test_deterministic(self, network):
        assert responsible_hsdirs(network.consensus, ONION, FEB4) == responsible_hsdirs(
            network.consensus, ONION, FEB4
        )

    def test_changes_across_periods(self, network):
        today = responsible_hsdirs(network.consensus, ONION, FEB4)
        tomorrow = responsible_hsdirs(network.consensus, ONION, FEB4 + DAY)
        assert today != tomorrow

    def test_different_onions_different_directories(self, network):
        other = onion_address_from_key(b"other-service")
        assert responsible_hsdirs(
            network.consensus, ONION, FEB4
        ) != responsible_hsdirs(network.consensus, other, FEB4)

    def test_count_parameter(self, network):
        result = responsible_for_replica(network.consensus, ONION, FEB4, 0, count=5)
        assert len(result) == 5


class TestPlacementForIds:
    def test_places_each_replica_id_like_the_scalar_chain(self, network):
        onions = [onion_address_from_key(f"service-{i}".encode()) for i in range(5)]
        id_lists = [
            [descriptor_id(onion, FEB4, replica) for replica in range(REPLICAS)]
            for onion in onions
        ]
        placed = responsible_replica_lists_for_ids(network.consensus, id_lists)
        assert placed == [
            [
                responsible_for_replica(network.consensus, onion, FEB4, replica)
                for replica in range(REPLICAS)
            ]
            for onion in onions
        ]

    def test_count_reaches_every_replica(self, network):
        ids = [descriptor_id(ONION, FEB4, replica) for replica in range(REPLICAS)]
        (placed,) = responsible_replica_lists_for_ids(network.consensus, [ids], count=2)
        assert [len(fingerprints) for fingerprints in placed] == [2] * REPLICAS

    def test_no_ids_no_placements(self, network):
        assert responsible_replica_lists_for_ids(network.consensus, []) == []
