"""The relay itself.

A relay is an (IP, ORPort) pair with an identity key, a nickname, bandwidth,
and a reachability switch.  Directory authorities observe reachability over
time and derive uptime, which in turn drives flag assignment (HSDir needs 25
hours).  Two behaviours matter specially here:

* **Key rotation** (``rotate_key``): a relay may replace its identity key,
  moving to a new ring position.  Honest relays do this rarely; Section VII
  flags relays that rotate often or rotate *just before* becoming a
  responsible HSDir for a target service.  Every rotation is recorded.
* **Reachability control** (``set_reachable``): the trawling attacker makes
  its *active* relays unreachable so that *shadow* relays on the same IP
  slide into the consensus with their accumulated uptime (Section II).

Every attribute write moves :attr:`Relay.state_version`; the directory
authority reuses a relay's consensus entry only while it stands still.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional

from repro.crypto.keys import Fingerprint, KeyPair
from repro.errors import SimulationError
from repro.net.address import IPv4
from repro.sim.clock import Timestamp

_relay_counter = itertools.count()


@dataclass(frozen=True)
class KeyChange:
    """One identity-key rotation event."""

    time: Timestamp
    old_fingerprint: Fingerprint
    new_fingerprint: Fingerprint


@dataclass
class Relay:
    """A Tor relay as seen by the directory authorities.

    Attributes:
        nickname: operator-chosen name (trackers often reuse a common stem —
            one of the Section VII tells).
        ip / or_port: the transport address; the consensus admits at most two
            relays per IP.
        keypair: current identity key.
        bandwidth: measured bandwidth in kB/s; breaks 2-per-IP ties.
        started_at: when the relay process first came up.
        reachable: whether authorities can currently reach it.
    """

    nickname: str
    ip: IPv4
    or_port: int
    keypair: KeyPair
    bandwidth: int
    started_at: Timestamp
    reachable: bool = True
    relay_id: int = field(default_factory=lambda: next(_relay_counter))
    _up_since: Optional[Timestamp] = field(default=None, repr=False)
    key_changes: List[KeyChange] = field(default_factory=list, repr=False)

    #: Moves on every attribute write, so equal versions mean equal state.
    state_version: ClassVar[int] = 0

    def __post_init__(self) -> None:
        if self.bandwidth < 0:
            raise SimulationError(f"negative bandwidth: {self.bandwidth}")
        if self._up_since is None and self.reachable:
            self._up_since = self.started_at

    def __setattr__(self, name: str, value: object) -> None:
        # Counting writes here rather than in each mutator leaves no state
        # change, a method's or a direct assignment's, that the authority's
        # entry cache could miss.
        object.__setattr__(self, name, value)
        self.__dict__["state_version"] = self.state_version + 1

    @property
    def fingerprint(self) -> Fingerprint:
        """Current identity fingerprint."""
        return self.keypair.fingerprint

    @property
    def address(self) -> tuple[IPv4, int]:
        """The (IP, ORPort) pair identifying the physical server."""
        return (self.ip, self.or_port)

    @property
    def up_since(self) -> Optional[Timestamp]:
        """Start of the current stretch of observed reachability (None while
        unreachable)."""
        return self._up_since

    def uptime(self, now: Timestamp) -> int:
        """Continuous seconds of observed reachability ending at ``now``."""
        if not self.reachable or self._up_since is None:
            return 0
        return max(0, int(now) - self._up_since)

    def set_reachable(self, reachable: bool, now: Timestamp) -> None:
        """Flip reachability; going down resets the uptime clock."""
        if reachable == self.reachable:
            return
        self.reachable = reachable
        self._up_since = int(now) if reachable else None

    def rotate_key(self, rng: random.Random, now: Timestamp) -> KeyPair:
        """Replace the identity key with a fresh one, recording the change.

        A new identity key is a new relay as far as the authorities are
        concerned, so the uptime clock restarts: the relay must stay up
        another 25 hours before it can regain HSDir.  This is why Section
        VII's trackers rotate fingerprints well ahead of their target period.
        """
        return self.adopt_key(KeyPair.generate(rng), now)

    def adopt_key(
        self,
        keypair: KeyPair,
        now: Timestamp,
        up_since: Optional[Timestamp] = None,
    ) -> KeyPair:
        """Install a specific key pair (used by trackers that ground a
        fingerprint next to a predicted descriptor ID), recording the change
        and restarting the uptime clock.

        The clock restarts at ``now``, or at ``up_since`` for an operator who
        actually rotated earlier than the change is recorded.
        """
        old = self.keypair
        self.keypair = keypair
        self.key_changes.append(
            KeyChange(
                time=int(now),
                old_fingerprint=old.fingerprint,
                new_fingerprint=keypair.fingerprint,
            )
        )
        if self.reachable:
            self._up_since = int(now if up_since is None else up_since)
        return keypair

    def __repr__(self) -> str:
        return (
            f"Relay({self.nickname!r}, {self.keypair.hex_fingerprint[:8]}…, "
            f"bw={self.bandwidth})"
        )
