"""Tests for repro.dirauth.voting — flag assignment policy."""

import math
import random

from hypothesis import given, strategies as st

from repro.crypto.keys import KeyPair
from repro.dirauth.voting import FlagPolicy
from repro.relay.flags import RelayFlags
from repro.relay.relay import Relay
from repro.sim.clock import DAY, HOUR


def make_relay(bandwidth=500, started_at=0, reachable=True, seed=0):
    return Relay(
        nickname="r",
        ip=1,
        or_port=9001,
        keypair=KeyPair.generate(random.Random(seed)),
        bandwidth=bandwidth,
        started_at=started_at,
        reachable=reachable,
    )


class TestFlagPolicy:
    def setup_method(self):
        self.policy = FlagPolicy()

    def test_unreachable_gets_nothing(self):
        relay = make_relay(reachable=False)
        assert self.policy.flags_for(relay, 100 * DAY) == RelayFlags.NONE

    def test_reachable_is_running_and_valid(self):
        flags = self.policy.flags_for(make_relay(), 1)
        assert flags & RelayFlags.RUNNING
        assert flags & RelayFlags.VALID

    def test_hsdir_exactly_at_25_hours(self):
        """The load-bearing threshold of the whole harvesting attack."""
        relay = make_relay()
        before = self.policy.flags_for(relay, 25 * HOUR - 1)
        after = self.policy.flags_for(relay, 25 * HOUR)
        assert not before & RelayFlags.HSDIR
        assert after & RelayFlags.HSDIR

    def test_hsdir_lost_after_restart(self):
        relay = make_relay()
        relay.set_reachable(False, 30 * HOUR)
        relay.set_reachable(True, 31 * HOUR)
        assert not self.policy.flags_for(relay, 40 * HOUR) & RelayFlags.HSDIR

    def test_fast_needs_bandwidth(self):
        slow = make_relay(bandwidth=50)
        fast = make_relay(bandwidth=200)
        assert not self.policy.flags_for(slow, DAY) & RelayFlags.FAST
        assert self.policy.flags_for(fast, DAY) & RelayFlags.FAST

    def test_stable_needs_uptime(self):
        relay = make_relay()
        assert not self.policy.flags_for(relay, 4 * DAY) & RelayFlags.STABLE
        assert self.policy.flags_for(relay, 6 * DAY) & RelayFlags.STABLE

    def test_guard_needs_uptime_and_bandwidth(self):
        seasoned_fast = make_relay(bandwidth=1000)
        seasoned_slow = make_relay(bandwidth=100)
        young_fast = make_relay(bandwidth=1000, started_at=7 * DAY)
        now = 9 * DAY
        assert self.policy.flags_for(seasoned_fast, now) & RelayFlags.GUARD
        assert not self.policy.flags_for(seasoned_slow, now) & RelayFlags.GUARD
        assert not self.policy.flags_for(young_fast, now) & RelayFlags.GUARD

    def test_custom_thresholds(self):
        policy = FlagPolicy(hsdir_min_uptime=HOUR)
        relay = make_relay()
        assert policy.flags_for(relay, 2 * HOUR) & RelayFlags.HSDIR


class TestNextFlagChange:
    def setup_method(self):
        self.policy = FlagPolicy()

    def test_fresh_relay_changes_first_at_hsdir_threshold(self):
        relay = make_relay(started_at=0)
        assert self.policy.next_flag_change(relay, 0) == 25 * HOUR

    def test_after_hsdir_the_stable_threshold_is_next(self):
        relay = make_relay(started_at=0)
        assert self.policy.next_flag_change(relay, 25 * HOUR) == 5 * DAY

    def test_after_stable_the_guard_threshold_is_next(self):
        relay = make_relay(started_at=0)
        assert self.policy.next_flag_change(relay, 6 * DAY) == 8 * DAY

    def test_no_threshold_left_ahead_is_infinite(self):
        relay = make_relay(started_at=0)
        assert self.policy.next_flag_change(relay, 8 * DAY) == math.inf

    def test_unreachable_relay_never_changes(self):
        relay = make_relay(reachable=False)
        assert self.policy.next_flag_change(relay, 0) == math.inf

    def test_restart_counts_from_the_new_uptime(self):
        relay = make_relay(started_at=0)
        relay.set_reachable(False, 30 * HOUR)
        relay.set_reachable(True, 31 * HOUR)
        assert self.policy.next_flag_change(relay, 32 * HOUR) == 31 * HOUR + 25 * HOUR

    @given(
        started_at=st.integers(0, 10 * DAY),
        offset=st.integers(0, 12 * DAY),
        bandwidth=st.integers(0, 2000),
    )
    def test_flags_hold_until_the_next_change(self, started_at, offset, bandwidth):
        relay = make_relay(bandwidth=bandwidth, started_at=started_at)
        now = started_at + offset
        change = self.policy.next_flag_change(relay, now)
        last_unchanged = now + 30 * DAY if change == math.inf else change - 1
        assert self.policy.flags_for(relay, now) == self.policy.flags_for(
            relay, last_unchanged
        )
