"""Tests for repro.dirauth.council — multi-authority voting."""

import random

import pytest

from repro.crypto.keys import KeyPair
from repro.dirauth.council import AuthorityCouncil, DirectoryAuthority
from repro.dirauth.voting import FlagPolicy
from repro.errors import ConsensusError
from repro.relay.flags import RelayFlags
from repro.relay.relay import Relay
from repro.sim.clock import DAY
from repro.sim.rng import derive_rng


def make_relay(index, bandwidth=1000, started_at=0, ip=None):
    return Relay(
        nickname=f"r{index}",
        ip=ip if ip is not None else 10_000 + index,
        or_port=9001,
        keypair=KeyPair.generate(random.Random(index)),
        bandwidth=bandwidth,
        started_at=started_at,
    )


def make_council(**kwargs):
    defaults = dict(rng=derive_rng(1, "council"))
    defaults.update(kwargs)
    return AuthorityCouncil(**defaults)


class TestDirectoryAuthority:
    def test_vote_covers_reachable_relays(self):
        authority = DirectoryAuthority(
            0, FlagPolicy(), derive_rng(2, "a"), misreachability=0.0
        )
        relays = [make_relay(i) for i in range(5)]
        relays[0].set_reachable(False, 0)
        vote = authority.vote(relays, DAY)
        assert set(vote.opinions) == {r.relay_id for r in relays[1:]}

    def test_bandwidth_noise_applied(self):
        authority = DirectoryAuthority(
            0, FlagPolicy(), derive_rng(3, "a"), misreachability=0.0,
            bandwidth_noise=0.2,
        )
        relay = make_relay(0, bandwidth=1000)
        measurements = {
            authority.vote([relay], DAY).opinions[relay.relay_id][1]
            for _ in range(10)
        }
        assert len(measurements) > 1  # scanner is noisy

    def test_excessive_misreachability_rejected(self):
        with pytest.raises(ConsensusError):
            DirectoryAuthority(0, FlagPolicy(), derive_rng(4, "a"), misreachability=0.6)


class TestAuthorityCouncil:
    def test_majority_masks_one_faulty_view(self):
        """A relay one authority fails to reach is still listed (the entire
        point of voting)."""
        council = make_council(misreachability=0.0)
        council.authorities[0].misreachability = 1.0  # authority 0 is blind
        relays = [make_relay(i) for i in range(10)]
        council.register_all(relays)
        consensus = council.build_consensus(2 * DAY)
        assert len(consensus) == 10

    def test_minority_cannot_list_a_dead_relay(self):
        council = make_council(misreachability=0.0)
        relays = [make_relay(i) for i in range(3)]
        relays[1].set_reachable(False, 0)
        council.register_all(relays)
        consensus = council.build_consensus(DAY)
        assert relays[1].fingerprint not in consensus

    def test_flag_majority(self):
        council = make_council(misreachability=0.0)
        seasoned = make_relay(0, started_at=0)
        young = make_relay(1, started_at=2 * DAY - 3600)
        council.register_all([seasoned, young])
        consensus = council.build_consensus(2 * DAY)
        assert consensus.entry_for(seasoned.fingerprint).has(RelayFlags.HSDIR)
        assert not consensus.entry_for(young.fingerprint).has(RelayFlags.HSDIR)

    def test_median_bandwidth(self):
        council = make_council(misreachability=0.0, bandwidth_noise=0.0)
        relay = make_relay(0, bandwidth=1234)
        council.register(relay)
        consensus = council.build_consensus(DAY)
        assert consensus.entry_for(relay.fingerprint).bandwidth == 1234

    def test_per_ip_limit_applies(self):
        council = make_council(misreachability=0.0)
        relays = [make_relay(i, ip=42, bandwidth=100 + i) for i in range(5)]
        council.register_all(relays)
        consensus = council.build_consensus(DAY)
        assert len(consensus) == 2

    def test_noise_rarely_delists_anyone(self):
        """With 9 authorities at 10% per-authority failure, losing the
        majority (≥5 simultaneous failures) is a ≈ 1e-4 event per relay."""
        council = make_council(misreachability=0.10)
        relays = [make_relay(i) for i in range(50)]
        council.register_all(relays)
        listed = sum(
            len(council.build_consensus(DAY + hour)) for hour in range(10)
        )
        assert listed >= 498  # ≤ 2 misses in 500 listings

    def test_zero_authorities_rejected(self):
        with pytest.raises(ConsensusError):
            AuthorityCouncil(authority_count=0)

    def test_double_register_rejected(self):
        council = make_council()
        relay = make_relay(0)
        council.register(relay)
        with pytest.raises(ConsensusError):
            council.register(relay)


class TestCouncilWithNetwork:
    def test_tornet_accepts_a_council(self):
        from repro.net.address import AddressPool
        from repro.sim.clock import SimClock
        from repro.tornet import TorNetwork

        council = make_council(misreachability=0.01)
        network = TorNetwork(clock=SimClock(0), authority=council)
        pool = AddressPool(derive_rng(5, "ips"))
        rng = derive_rng(5, "relays")
        for index in range(60):
            network.add_relay(
                Relay(
                    nickname=f"v{index}",
                    ip=pool.allocate(),
                    or_port=9001,
                    keypair=KeyPair.generate(rng),
                    bandwidth=rng.randint(100, 3000),
                    started_at=0,
                )
            )
        consensus = network.rebuild_consensus(10 * DAY)
        assert len(consensus) >= 58
        assert consensus.hsdir_count >= 55
        for entry in consensus:
            relay = network.relay_for_fingerprint(entry.fingerprint)
            assert relay.fingerprint == entry.fingerprint
        assert network.relay_for_fingerprint(b"\x00" * 20) is None

        # Full protocol flow still works on top of the voted consensus.
        from repro.hs.service import HiddenService

        service = HiddenService(keypair=KeyPair.generate(rng), online_from=0)
        assert network.publish_service(service) == 6
        assert network.fetch_onion(service.onion, rng) is not None
