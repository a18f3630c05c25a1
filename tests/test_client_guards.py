"""Tests for repro.client.guards."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.client.guards import (
    GUARD_LIFETIME_MAX,
    GUARD_LIFETIME_MIN,
    GUARD_SET_SIZE,
    GuardSet,
    GuardSlot,
)
from repro.crypto.ring import FingerprintRing
from repro.dirauth.consensus import Consensus, ConsensusEntry
from repro.errors import SimulationError
from repro.relay.flags import RelayFlags
from repro.sim.clock import DAY
from repro.sim.rng import derive_rng


class TestRefresh:
    def test_fills_to_three(self, network):
        guards = GuardSet(derive_rng(1, "g"))
        guards.refresh(network.consensus, network.clock.now)
        assert len(guards.fingerprints) == GUARD_SET_SIZE

    def test_only_guard_flagged_relays(self, network):
        guards = GuardSet(derive_rng(1, "g"))
        guards.refresh(network.consensus, network.clock.now)
        for fp in guards.fingerprints:
            assert network.consensus.entry_for(fp).has(RelayFlags.GUARD)

    def test_no_duplicates(self, network):
        guards = GuardSet(derive_rng(2, "g"))
        guards.refresh(network.consensus, network.clock.now)
        assert len(set(guards.fingerprints)) == len(guards.fingerprints)

    def test_stable_across_refreshes(self, network):
        guards = GuardSet(derive_rng(3, "g"))
        guards.refresh(network.consensus, network.clock.now)
        before = list(guards.fingerprints)
        guards.refresh(network.consensus, network.clock.now + 3600)
        assert guards.fingerprints == before

    def test_expired_guard_replaced(self, network):
        guards = GuardSet(derive_rng(4, "g"))
        now = network.clock.now
        guards.refresh(network.consensus, now)
        before = set(guards.fingerprints)
        guards.refresh(network.consensus, now + GUARD_LIFETIME_MAX + 1)
        after = set(guards.fingerprints)
        assert before.isdisjoint(after) or before != after
        assert len(after) == GUARD_SET_SIZE

    def test_not_expired_within_minimum(self, network):
        guards = GuardSet(derive_rng(5, "g"))
        now = network.clock.now
        guards.refresh(network.consensus, now)
        before = list(guards.fingerprints)
        guards.refresh(network.consensus, now + GUARD_LIFETIME_MIN - 1)
        assert guards.fingerprints == before

    def test_vanished_guard_replaced(self, network):
        guards = GuardSet(derive_rng(6, "g"))
        now = network.clock.now
        guards.refresh(network.consensus, now)
        victim_fp = guards.fingerprints[0]
        victim = network.relay_for_fingerprint(victim_fp)
        victim.set_reachable(False, now)
        network.clock.advance_by(3600)
        consensus = network.rebuild_consensus()
        guards.refresh(consensus, network.clock.now)
        assert victim_fp not in guards.fingerprints
        assert len(guards.fingerprints) == GUARD_SET_SIZE


class TestPick:
    def test_pick_from_set(self, network):
        guards = GuardSet(derive_rng(7, "g"))
        guards.refresh(network.consensus, network.clock.now)
        for _ in range(20):
            assert guards.pick() in guards.fingerprints

    def test_pick_empty_raises(self):
        with pytest.raises(SimulationError):
            GuardSet(derive_rng(8, "g")).pick()

    def test_bandwidth_weighting(self, network):
        """High-bandwidth guards should be selected more often across many
        independent clients — the property the deanon attack's economics
        rest on."""
        entries = network.consensus.with_flag(RelayFlags.GUARD)
        top = max(entries, key=lambda e: e.bandwidth)
        bottom = min(entries, key=lambda e: e.bandwidth)
        top_count = bottom_count = 0
        for i in range(400):
            guards = GuardSet(derive_rng(9, "g", str(i)))
            guards.refresh(network.consensus, network.clock.now)
            top_count += top.fingerprint in guards.fingerprints
            bottom_count += bottom.fingerprint in guards.fingerprints
        assert top_count > bottom_count


class ReferenceGuardSet:
    """The guard refresh as first written: the Guard candidate dict is
    rebuilt from the consensus entries on every call.  The oracle for
    :meth:`GuardSet.refresh`, which copies the consensus's cached table."""

    def __init__(self, rng, slots):
        self.rng = rng
        self.slots = list(slots)

    def refresh(self, consensus, now):
        self.slots = [
            slot
            for slot in self.slots
            if slot.expires_at > now and consensus.entry_for(slot.fingerprint) is not None
        ]
        candidates = {
            entry.fingerprint: max(1, entry.bandwidth)
            for entry in consensus.entries
            if entry.has(RelayFlags.GUARD)
        }
        have = {slot.fingerprint for slot in self.slots}
        while len(self.slots) < GUARD_SET_SIZE and candidates:
            fingerprints = list(candidates)
            weights = [candidates[fp] for fp in fingerprints]
            pick = self.rng.choices(fingerprints, weights=weights, k=1)[0]
            candidates.pop(pick, None)
            if pick in have:
                continue
            have.add(pick)
            lifetime = self.rng.randint(GUARD_LIFETIME_MIN, GUARD_LIFETIME_MAX)
            self.slots.append(GuardSlot(fingerprint=pick, expires_at=int(now) + lifetime))


_FLAG_MASKS = [
    RelayFlags.RUNNING,
    RelayFlags.RUNNING | RelayFlags.GUARD,
    RelayFlags.RUNNING | RelayFlags.GUARD | RelayFlags.FAST,
    RelayFlags.RUNNING | RelayFlags.FAST | RelayFlags.STABLE,
    RelayFlags.RUNNING | RelayFlags.GUARD | RelayFlags.HSDIR | RelayFlags.STABLE,
    RelayFlags.RUNNING | RelayFlags.HSDIR,
]
_START = 1_360_000_000


def _entries(draw, pool):
    chosen = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return tuple(
        ConsensusEntry(
            fingerprint=fp,
            nickname=f"r{index}",
            ip=index + 1,
            or_port=9001,
            # Zero (and the odd negative) bandwidths must weigh 1, not 0.
            bandwidth=draw(st.one_of(st.just(0), st.integers(-5, 5000))),
            flags=draw(st.sampled_from(_FLAG_MASKS)),
        )
        for index, fp in enumerate(chosen)
    )


def _assembled(valid_after, entries):
    return Consensus.assemble(
        valid_after,
        entries,
        {entry.fingerprint: entry for entry in entries},
        FingerprintRing(
            [entry.fingerprint for entry in entries if entry.has(RelayFlags.HSDIR)]
        ),
    )


@st.composite
def guard_scenarios(draw):
    """Two consensuses over one fingerprint pool (one of them assembled),
    pre-existing slots, and a schedule of refreshes alternating between
    the two consensuses."""
    pool = draw(
        st.lists(st.binary(min_size=20, max_size=20), min_size=1, max_size=12, unique=True)
    )
    first = Consensus(valid_after=_START, entries=_entries(draw, pool))
    second = _assembled(_START + 3600, _entries(draw, pool))
    # Slots may name relays absent from a consensus, or no relay at all.
    slot_pool = pool + [b"\xee" * 20]
    slots = [
        GuardSlot(fingerprint=fp, expires_at=_START + draw(st.integers(-DAY, 70 * DAY)))
        for fp in draw(st.lists(st.sampled_from(slot_pool), unique=True, max_size=4))
    ]
    steps = draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 70 * DAY)), min_size=1, max_size=6
        )
    )
    return first, second, slots, steps, draw(st.integers(0, 2**32))



class TestCachedGuardTableOracle:
    """``GuardSet.refresh`` through the per-consensus table equals the
    rebuild-every-call reference: same slots, expiries and RNG state."""

    @settings(max_examples=150, deadline=None)
    @given(scenario=guard_scenarios())
    def test_matches_rebuilding_reference(self, scenario):
        first, second, slots, steps, seed = scenario
        guards = GuardSet(random.Random(seed))
        guards._slots = [GuardSlot(s.fingerprint, s.expires_at) for s in slots]
        reference = ReferenceGuardSet(
            random.Random(seed), [GuardSlot(s.fingerprint, s.expires_at) for s in slots]
        )
        now = _START
        for index, (use_second, advance) in enumerate(steps):
            # Alternate between the two consensuses; the drawn flag picks
            # which one goes first.
            consensus = second if use_second ^ (index % 2 == 1) else first
            now += advance
            guards.refresh(consensus, now)
            reference.refresh(consensus, now)
            assert [(s.fingerprint, s.expires_at) for s in guards._slots] == [
                (s.fingerprint, s.expires_at) for s in reference.slots
            ]
            assert guards._rng.getstate() == reference.rng.getstate()

    def test_table_is_per_consensus(self):
        pool = [bytes([i]) * 20 for i in range(1, 7)]
        heavy = Consensus(
            valid_after=_START,
            entries=tuple(
                ConsensusEntry(fp, f"r{i}", i + 1, 9001, 10 ** (i + 1), RelayFlags.GUARD)
                for i, fp in enumerate(pool[:3])
            ),
        )
        light = _assembled(
            _START,
            tuple(
                ConsensusEntry(fp, f"r{i}", i + 1, 9001, 0, RelayFlags.GUARD)
                for i, fp in enumerate(pool[3:])
            ),
        )
        assert heavy.guard_weights == {pool[0]: 10, pool[1]: 100, pool[2]: 1000}
        assert light.guard_weights == {fp: 1 for fp in pool[3:]}
        assert heavy.guard_weights == {pool[0]: 10, pool[1]: 100, pool[2]: 1000}

    def test_with_flag_hands_out_fresh_lists(self):
        guard = ConsensusEntry(b"\x01" * 20, "g", 1, 9001, 50, RelayFlags.GUARD)
        fast = ConsensusEntry(b"\x02" * 20, "f", 2, 9001, 50, RelayFlags.FAST)
        consensus = Consensus(valid_after=_START, entries=(guard, fast))
        handed = consensus.with_flag(RelayFlags.GUARD)
        handed.append(fast)
        handed.clear()
        assert consensus.with_flag(RelayFlags.GUARD) == [guard]
        assert consensus.with_flag(RelayFlags.FAST) == [fast]
        assert consensus.guard_weights == {guard.fingerprint: 50}
