"""Tests for repro.dirauth.authority — the monitored-relay flaw."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keys import KeyPair
from repro.dirauth.authority import DirectoryAuthoritySet, build_consensus_scratch
from repro.dirauth.voting import FlagPolicy
from repro.errors import ConsensusError
from repro.relay.flags import RelayFlags
from repro.relay.relay import Relay
from repro.sim.clock import DAY, HOUR

POLICY = FlagPolicy()
#: Uptimes at which HSDir, Stable and Guard appear.
THRESHOLDS = (
    POLICY.hsdir_min_uptime,
    POLICY.stable_min_uptime,
    POLICY.guard_min_uptime,
)
CHURN = (
    "spawn",
    "deregister",
    "reregister",
    "down",
    "up",
    "rotate",
    "backdate",
    "tick",
    "threshold",
    "reweigh",
    "rehome",
    "twin",
)


def make_relay(ip, bandwidth=500, started_at=0, nickname="r", seed=None):
    return Relay(
        nickname=nickname,
        ip=ip,
        or_port=9001,
        keypair=KeyPair.generate(random.Random(seed) if seed is not None else random),
        bandwidth=bandwidth,
        started_at=started_at,
    )


def assert_matches_scratch(authority, now):
    """Build once and compare with the from-scratch oracle: every entry,
    the HSDir ring, and the fingerprint -> relay map the network reads.
    When the oracle rejects the consensus (a duplicate fingerprint), the
    incremental build must reject it too."""
    try:
        oracle = build_consensus_scratch(
            authority.monitored_relays, authority.policy, now
        )
    except ConsensusError:
        with pytest.raises(ConsensusError):
            authority.build_consensus(now)
        return None
    consensus = authority.build_consensus(now)
    assert consensus.valid_after == oracle.valid_after
    assert consensus.entries == oracle.entries
    assert consensus.fingerprint_index == oracle.fingerprint_index
    assert consensus.hsdir_ring.fingerprints == oracle.hsdir_ring.fingerprints
    assert consensus.hsdir_ring.same_members(oracle.hsdir_ring)
    assert {fp: relay.relay_id for fp, relay in authority.admitted.items()} == {
        relay.fingerprint: relay.relay_id
        for relay in authority.monitored_relays
        if relay.fingerprint in oracle
        and oracle.entry_for(relay.fingerprint).nickname == relay.nickname
    }
    return consensus


class TestRegistration:
    def test_register_and_count(self):
        authority = DirectoryAuthoritySet()
        authority.register(make_relay(1))
        assert authority.monitored_count == 1

    def test_double_register_rejected(self):
        authority = DirectoryAuthoritySet()
        relay = make_relay(1)
        authority.register(relay)
        with pytest.raises(ConsensusError):
            authority.register(relay)

    def test_deregister(self):
        authority = DirectoryAuthoritySet()
        relay = make_relay(1)
        authority.register(relay)
        authority.deregister(relay)
        assert authority.monitored_count == 0


class TestConsensusBuilding:
    def test_only_reachable_listed(self):
        authority = DirectoryAuthoritySet()
        up = make_relay(1)
        down = make_relay(2, seed=1)
        down.set_reachable(False, 0)
        authority.register_all([up, down])
        consensus = authority.build_consensus(DAY)
        assert up.fingerprint in consensus
        assert down.fingerprint not in consensus

    def test_per_ip_rule_enforced(self):
        authority = DirectoryAuthoritySet()
        for i in range(5):
            authority.register(make_relay(7, bandwidth=100 + i, seed=i))
        consensus = authority.build_consensus(DAY)
        assert len(consensus) == 2

    def test_entries_sorted_by_fingerprint(self):
        authority = DirectoryAuthoritySet()
        for i in range(10):
            authority.register(make_relay(i, seed=i))
        consensus = authority.build_consensus(DAY)
        fps = [entry.fingerprint for entry in consensus]
        assert fps == sorted(fps)

    def test_shadow_relays_accrue_uptime_while_unlisted(self):
        """THE flaw (Section II): relays squeezed out by the per-IP rule are
        still monitored; when the active pair dies, the shadow enters the
        consensus with HSDir immediately."""
        authority = DirectoryAuthoritySet()
        actives = [make_relay(9, bandwidth=1000 + i, seed=i) for i in range(2)]
        shadow = make_relay(9, bandwidth=100, seed=99)
        authority.register_all(actives + [shadow])

        early = authority.build_consensus(26 * HOUR)
        assert shadow.fingerprint not in early

        for relay in actives:
            relay.set_reachable(False, 26 * HOUR)
        late = authority.build_consensus(27 * HOUR)
        entry = late.entry_for(shadow.fingerprint)
        assert entry is not None
        assert entry.has(RelayFlags.HSDIR)  # full 27 h of uptime counted

    def test_consensus_counter(self):
        authority = DirectoryAuthoritySet()
        authority.build_consensus(0)
        authority.build_consensus(HOUR)
        assert authority.consensuses_built == 2


class TestIncrementalBuild:
    def test_unchanged_relay_reuses_its_entry(self):
        authority = DirectoryAuthoritySet()
        authority.register(make_relay(1, started_at=0, seed=1))
        first = authority.build_consensus(2 * DAY)
        second = authority.build_consensus(3 * DAY)  # no threshold in between
        assert second.entries[0] is first.entries[0]

    @pytest.mark.parametrize(
        "bandwidth",
        [POLICY.guard_min_bandwidth - 1, POLICY.guard_min_bandwidth],
    )
    def test_flag_thresholds_match_scratch(self, bandwidth):
        authority = DirectoryAuthoritySet()
        authority.register(make_relay(1, bandwidth=bandwidth, started_at=0, seed=2))
        for threshold in THRESHOLDS:
            for now in (threshold - 1, threshold, threshold + 1):
                assert_matches_scratch(authority, now)
        (entry,) = authority.build_consensus(POLICY.guard_min_uptime).entries
        assert entry.has(RelayFlags.GUARD) == (
            bandwidth >= POLICY.guard_min_bandwidth
        )

    def test_tie_on_one_ip_goes_to_the_earlier_registration(self):
        """Two relays on one key, bandwidth and IP, behind a faster third:
        the per-IP rule admits the one registered first, as the scratch
        build's candidate order does, also after a re-registration."""
        key = KeyPair.generate(random.Random(9))
        first, second = (
            Relay(
                nickname=name, ip=7, or_port=9001, keypair=key,
                bandwidth=500, started_at=0,
            )
            for name in ("first", "second")
        )
        fast = make_relay(7, bandwidth=900, started_at=0, seed=10)
        authority = DirectoryAuthoritySet()
        authority.register_all([first, second, fast])
        consensus = assert_matches_scratch(authority, 2 * DAY)
        assert consensus.entry_for(key.fingerprint).nickname == "first"
        authority.deregister(first)
        authority.register(first)
        consensus = assert_matches_scratch(authority, 2 * DAY + HOUR)
        assert consensus.entry_for(key.fingerprint).nickname == "second"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_relay_churn_matches_scratch(self, data):
        """Registration churn, reachability flips, key rotations and
        backdated key changes, with ``now`` moving both ways and landing on
        flag thresholds: every build equals the from-scratch oracle."""
        keys = random.Random(data.draw(st.integers(0, 2**16), label="key seed"))
        authority = DirectoryAuthoritySet()
        monitored, retired = [], []
        now = 20 * DAY

        def spawn(keypair=None):
            relay = Relay(
                nickname=f"r{len(monitored) + len(retired)}",
                ip=data.draw(st.integers(1, 3), label="ip"),
                or_port=9001,
                keypair=keypair if keypair is not None else KeyPair.generate(keys),
                bandwidth=data.draw(
                    st.sampled_from((99, 100, 249, 250, 251)), label="bandwidth"
                ),
                started_at=now - data.draw(st.integers(0, 10 * DAY), label="age"),
            )
            authority.register(relay)
            monitored.append(relay)

        for _ in range(3):
            spawn()
        for _ in range(data.draw(st.integers(1, 30), label="steps")):
            op = data.draw(st.sampled_from(CHURN), label="op")
            if op == "spawn" or not monitored:
                spawn()
            elif op == "reregister":
                if retired:
                    relay = retired.pop()
                    authority.register(relay)
                    monitored.append(relay)
            elif op == "tick":
                now += data.draw(st.integers(-HOUR, 3 * DAY), label="tick")
            elif op == "twin":
                # A second relay on an existing key: a duplicate fingerprint
                # unless the per-IP rule keeps one of them out.
                spawn(data.draw(st.sampled_from(monitored), label="twin").keypair)
            else:
                relay = data.draw(st.sampled_from(monitored), label="relay")
                if op == "deregister":
                    authority.deregister(relay)
                    monitored.remove(relay)
                    retired.append(relay)
                elif op == "down":
                    relay.set_reachable(False, now)
                elif op == "up":
                    back = data.draw(st.integers(0, 2 * DAY), label="since")
                    relay.set_reachable(True, now - back)
                elif op == "rotate":
                    relay.rotate_key(keys, now)
                elif op == "reweigh":
                    relay.bandwidth = data.draw(
                        st.sampled_from((99, 100, 249, 250, 251)), label="bandwidth"
                    )
                elif op == "rehome":
                    relay.ip = data.draw(st.integers(1, 3), label="ip")
                elif op == "backdate":
                    back = data.draw(st.integers(0, 9 * DAY), label="since")
                    relay.adopt_key(KeyPair.generate(keys), now, up_since=now - back)
                elif relay.up_since is not None:  # "threshold"
                    now = (
                        relay.up_since
                        + data.draw(st.sampled_from(THRESHOLDS), label="threshold")
                        + data.draw(st.sampled_from((-1, 0, 1)), label="edge")
                    )
            assert_matches_scratch(authority, now)
