"""Flag-assignment policy.

Real Tor authorities vote and take a majority; the study only depends on the
*effective* thresholds, so the policy is expressed directly.  The decisive
rule for this paper is HSDir: "a Tor relay needs to be operational for at
least 25 hours to obtain this flag" — and crucially the uptime is accrued by
*all monitored relays*, consensus-listed or not, which is the flaw the
harvesting attack exploits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.relay.flags import RelayFlags
from repro.relay.relay import Relay
from repro.sim.clock import DAY, HOUR, Timestamp

# Flag assignment runs once per relay per consensus — hundreds of thousands
# of times in a multi-year history build — and IntFlag's operators construct a new
# enum member per ``|``.  The policy therefore works on plain int masks and
# converts once at the end, through a cache over the handful of masks that
# actually occur.
_RUNNING_VALID = RelayFlags.RUNNING.value | RelayFlags.VALID.value
_FAST = RelayFlags.FAST.value
_STABLE = RelayFlags.STABLE.value
_HSDIR = RelayFlags.HSDIR.value
_GUARD = RelayFlags.GUARD.value


@functools.lru_cache(maxsize=None)
def _flags_from_mask(mask: int) -> RelayFlags:
    return RelayFlags(mask)


@dataclass(frozen=True)
class FlagPolicy:
    """Thresholds for assigning router flags.

    Attributes:
        hsdir_min_uptime: continuous uptime needed for HSDir (25 h in the
            2013 network the paper measured).
        guard_min_uptime: uptime needed for Guard.
        guard_min_bandwidth: measured bandwidth needed for Guard (kB/s).
        stable_min_uptime: uptime needed for Stable.
        fast_min_bandwidth: bandwidth needed for Fast (kB/s).
    """

    hsdir_min_uptime: int = 25 * HOUR
    guard_min_uptime: int = 8 * DAY
    guard_min_bandwidth: int = 250
    stable_min_uptime: int = 5 * DAY
    fast_min_bandwidth: int = 100

    def flags_for(self, relay: Relay, now: Timestamp) -> RelayFlags:
        """Flags a relay earns at ``now`` from its uptime and bandwidth."""
        if not relay.reachable:
            return RelayFlags.NONE
        mask = _RUNNING_VALID
        uptime = relay.uptime(now)
        if relay.bandwidth >= self.fast_min_bandwidth:
            mask |= _FAST
        if uptime >= self.stable_min_uptime:
            mask |= _STABLE
        if uptime >= self.hsdir_min_uptime:
            mask |= _HSDIR
        if (
            uptime >= self.guard_min_uptime
            and relay.bandwidth >= self.guard_min_bandwidth
        ):
            mask |= _GUARD
        return _flags_from_mask(mask)

    def next_flag_change(self, relay: Relay, now: Timestamp) -> float:
        """The first time after ``now`` at which :meth:`flags_for` may answer
        differently for ``relay``, if the relay itself does not change.

        Only uptime moves with the clock, and it changes a flag only on
        reaching a threshold; ``math.inf`` once none is left ahead.
        """
        up_since = relay.up_since
        if not relay.reachable or up_since is None:
            return math.inf
        when = int(now)
        return min(
            (
                up_since + threshold
                for threshold in (
                    self.hsdir_min_uptime,
                    self.stable_min_uptime,
                    self.guard_min_uptime,
                )
                if up_since + threshold > when
            ),
            default=math.inf,
        )
