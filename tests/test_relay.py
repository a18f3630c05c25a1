"""Tests for repro.relay — relay model, flags, uptime accounting."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto.keys import KeyPair
from repro.errors import SimulationError
from repro.relay.flags import RelayFlags, flags_overlap
from repro.relay.relay import Relay
from repro.sim.clock import HOUR


def make_relay(bandwidth=500, started_at=0, reachable=True):
    return Relay(
        nickname="test",
        ip=0x01020304,
        or_port=9001,
        keypair=KeyPair.generate(random.Random(0)),
        bandwidth=bandwidth,
        started_at=started_at,
        reachable=reachable,
    )


class TestRelayFlags:
    def test_bitmask_composition(self):
        flags = RelayFlags.RUNNING | RelayFlags.HSDIR
        assert flags & RelayFlags.HSDIR
        assert not flags & RelayFlags.GUARD

    def test_names(self):
        flags = RelayFlags.RUNNING | RelayFlags.HSDIR | RelayFlags.GUARD
        assert set(flags.names()) == {"Running", "HSDir", "Guard"}

    def test_none_has_no_names(self):
        assert RelayFlags.NONE.names() == []


class TestUptime:
    def test_accrues_from_start(self):
        relay = make_relay(started_at=100)
        assert relay.uptime(100 + 3 * HOUR) == 3 * HOUR

    def test_zero_when_unreachable(self):
        relay = make_relay(reachable=False)
        assert relay.uptime(10 * HOUR) == 0

    def test_reset_on_downtime(self):
        relay = make_relay(started_at=0)
        relay.set_reachable(False, 10 * HOUR)
        relay.set_reachable(True, 12 * HOUR)
        assert relay.uptime(13 * HOUR) == HOUR

    def test_set_reachable_idempotent(self):
        relay = make_relay(started_at=0)
        relay.set_reachable(True, 5 * HOUR)  # no-op
        assert relay.uptime(6 * HOUR) == 6 * HOUR

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(SimulationError):
            make_relay(bandwidth=-1)


class TestKeyRotation:
    def test_rotation_changes_fingerprint(self):
        relay = make_relay()
        old = relay.fingerprint
        relay.rotate_key(random.Random(1), now=100)
        assert relay.fingerprint != old

    def test_rotation_recorded(self):
        relay = make_relay()
        old = relay.fingerprint
        relay.rotate_key(random.Random(1), now=100)
        assert len(relay.key_changes) == 1
        change = relay.key_changes[0]
        assert change.old_fingerprint == old
        assert change.new_fingerprint == relay.fingerprint
        assert change.time == 100

    def test_rotation_resets_uptime(self):
        """A new identity key is a new relay to the authorities: the 25-hour
        HSDir clock restarts — why Section VII trackers rotate early."""
        relay = make_relay(started_at=0)
        assert relay.uptime(30 * HOUR) == 30 * HOUR
        relay.rotate_key(random.Random(1), now=30 * HOUR)
        assert relay.uptime(31 * HOUR) == HOUR

    def test_adopt_specific_key(self):
        relay = make_relay()
        forged = KeyPair.with_forged_fingerprint(b"\x42" * 20)
        relay.adopt_key(forged, now=50)
        assert relay.fingerprint == b"\x42" * 20

    def test_multiple_rotations_accumulate_history(self):
        relay = make_relay()
        rng = random.Random(2)
        for t in (10, 20, 30):
            relay.rotate_key(rng, now=t)
        assert len(relay.key_changes) == 3
        # Chain consistency: each change's old key is the previous new key.
        for earlier, later in zip(relay.key_changes, relay.key_changes[1:]):
            assert earlier.new_fingerprint == later.old_fingerprint

    def test_address_stable_across_rotation(self):
        relay = make_relay()
        address = relay.address
        relay.rotate_key(random.Random(1), now=10)
        assert relay.address == address

    def test_backdated_key_change_keeps_earlier_uptime(self):
        relay = make_relay(started_at=0)
        relay.adopt_key(
            KeyPair.generate(random.Random(3)), now=40 * HOUR, up_since=10 * HOUR
        )
        assert relay.uptime(40 * HOUR) == 30 * HOUR
        assert relay.key_changes[-1].time == 40 * HOUR


class TestStateVersion:
    def test_any_attribute_write_moves_the_version(self):
        """The authority reuses a consensus entry only while the version
        stands still, so direct writes must move it as well as methods."""
        relay = make_relay()
        before = relay.state_version
        relay.bandwidth = 900
        assert relay.state_version != before


class TestFlagsOverlap:
    def test_shared_flag_overlaps(self):
        flags = RelayFlags.RUNNING | RelayFlags.HSDIR
        assert flags_overlap(flags, RelayFlags.HSDIR | RelayFlags.GUARD)

    def test_disjoint_flags_do_not_overlap(self):
        flags = RelayFlags.RUNNING | RelayFlags.VALID
        assert not flags_overlap(flags, RelayFlags.HSDIR | RelayFlags.GUARD)

    def test_empty_mask_never_overlaps(self):
        assert not flags_overlap(RelayFlags.RUNNING | RelayFlags.HSDIR, RelayFlags.NONE)

    def test_returns_a_plain_bool(self):
        assert flags_overlap(RelayFlags.GUARD, RelayFlags.GUARD) is True

    @given(
        flags=st.integers(0, (1 << len(RelayFlags)) - 1),
        mask=st.integers(0, (1 << len(RelayFlags)) - 1),
    )
    def test_agrees_with_the_enum_operator(self, flags, mask):
        flags, mask = RelayFlags(flags), RelayFlags(mask)
        assert flags_overlap(flags, mask) == bool(flags & mask)
