"""Scalar ≡ batch parity for the end-to-end batch routing.

Every batch API the experiment wiring now calls must match the scalar
oracle it replaced — byte-for-byte for descriptor IDs and placements,
bit-for-bit for floats — on the happy path, on the degenerate shapes the
sweeps actually hit (empty onion sets, rings smaller than the replica
fan-out, successor runs that wrap past the top of the ring, zero-length
windows), and with numpy made unimportable.  When these disagree, the
bug is in the batch kernel: the scalar oracle is the specification and
is never adjusted to make a test pass.
"""

import bisect
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto.descriptor_id import (
    REPLICAS,
    descriptor_ids_for_day,
    descriptor_ids_for_day_batch,
    descriptor_index_entries,
    descriptor_index_entries_batch,
)
from repro.crypto.onion import onion_address_from_key
from repro.crypto.ring import (
    HSDIRS_PER_REPLICA,
    responsible_positions,
    responsible_positions_batch,
    ring_start_indices,
)
from repro.errors import AttackError
from repro.hsdir.ring_view import (
    responsible_for_replica,
    responsible_replica_lists_batch,
)
from repro.scan.schedule import ScanSchedule
from repro.sim.clock import DAY, HOUR, parse_date
from repro.trawl.harvest import RingHistory
from tests.conftest import make_network, numpy_unimportable

BASE = parse_date("2013-02-04")

_POINT = st.integers(min_value=0, max_value=2**160 - 1)


def _onions(keys):
    return [onion_address_from_key(key) for key in keys]


class TestDescriptorBatchParity:
    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(st.binary(min_size=8, max_size=40), max_size=10),
        day_offset=st.integers(min_value=-3, max_value=3),
        second=st.integers(min_value=0, max_value=DAY - 1),
    )
    def test_day_batch_matches_scalar(self, keys, day_offset, second):
        onions = _onions(keys)
        now = BASE + day_offset * DAY + second
        assert descriptor_ids_for_day_batch(onions, now) == [
            descriptor_ids_for_day(onion, now) for onion in onions
        ]

    def test_empty_onion_set(self):
        assert descriptor_ids_for_day_batch([], BASE) == []
        assert descriptor_index_entries_batch([], BASE, BASE + DAY) == []

    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(st.binary(min_size=8, max_size=40), max_size=8),
        second=st.integers(min_value=0, max_value=2 * DAY),
    )
    def test_zero_length_window(self, keys, second):
        onions = _onions(keys)
        when = BASE + second
        assert descriptor_index_entries_batch(onions, when, when) == [
            descriptor_index_entries(onion, when, when) for onion in onions
        ]


@st.composite
def ring_cases(draw):
    """A sorted ring plus queries biased toward members and their neighbours."""
    points = sorted(set(draw(st.lists(_POINT, max_size=24))))
    queries = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        choice = draw(st.integers(min_value=0, max_value=2))
        if choice == 0 and points:
            # Exact tie: bisect_right must step past the equal point.
            queries.append(draw(st.sampled_from(points)))
        elif choice == 1 and points:
            # One below or above a member: the run starts at it or after it.
            base = draw(st.sampled_from(points))
            queries.append(max(0, base + draw(st.sampled_from((-1, 1)))))
        else:
            queries.append(draw(_POINT))
    return points, queries


#: A five-member ring spaced evenly around the 160-bit circle.
_FIVE = [k << 156 for k in range(1, 6)]


class TestRingStartIndices:
    @settings(max_examples=80, deadline=None)
    @given(case=ring_cases())
    @example(case=(_FIVE, [_FIVE[2], _FIVE[-1], 0]))  # a query equal to a member
    def test_matches_bisect(self, case):
        points, queries = case
        expected = [bisect.bisect_right(points, query) for query in queries]
        assert ring_start_indices(queries, points) == expected

    @settings(max_examples=25, deadline=None)
    @given(case=ring_cases())
    def test_matches_bisect_without_numpy(self, case):
        points, queries = case
        expected = [bisect.bisect_right(points, query) for query in queries]
        with numpy_unimportable():
            assert ring_start_indices(queries, points) == expected

    def test_positions_batch_without_numpy(self):
        rng = random.Random(7)
        points = sorted({rng.getrandbits(160) for _ in range(40)})
        queries = [rng.getrandbits(160) for _ in range(60)] + points[:5]
        expected = [responsible_positions(query, points) for query in queries]
        with numpy_unimportable():
            assert responsible_positions_batch(queries, points) == expected


class TestResponsiblePositionsBatch:
    @settings(max_examples=80, deadline=None)
    @given(case=ring_cases(), count=st.integers(min_value=1, max_value=4))
    # The successor run wraps: start + take > size.
    @example(case=(_FIVE, [_FIVE[-2], _FIVE[-1] + 1, _FIVE[3] - 1]), count=3)
    # Rings smaller than the replica fan-out repeat members.
    @example(case=(_FIVE[:2], [0, _FIVE[0], _FIVE[1] + 7]), count=3)
    @example(case=(_FIVE[:1], [_FIVE[0], 0]), count=3)
    # A query equal to a member point starts the run after that member.
    @example(case=(_FIVE, [_FIVE[0], _FIVE[2]]), count=3)
    def test_matches_per_item_reference(self, case, count):
        points, queries = case
        expected = [responsible_positions(query, points, count) for query in queries]
        assert responsible_positions_batch(queries, points, count) == expected


class TestSmallRingDuplicates:
    """Rings smaller than REPLICAS * count wrap and repeat directories."""

    @pytest.fixture(scope="class")
    def tiny_network(self):
        net, _pool = make_network(seed=33, relay_count=5)
        return net

    def test_ring_really_is_smaller_than_fanout(self, tiny_network):
        assert 0 < tiny_network.consensus.hsdir_count < REPLICAS * HSDIRS_PER_REPLICA

    def test_batch_matches_scalar_on_tiny_ring(self, tiny_network):
        onions = _onions(bytes([value]) * 9 for value in range(12))
        now = parse_date("2013-01-02")
        consensus = tiny_network.consensus
        per_replica = responsible_replica_lists_batch(consensus, onions, now)
        for onion, lists in zip(onions, per_replica):
            assert lists == [
                responsible_for_replica(consensus, onion, now, replica)
                for replica in range(REPLICAS)
            ]

    def test_empty_onions_on_tiny_ring(self, tiny_network):
        assert responsible_replica_lists_batch(tiny_network.consensus, [], BASE) == []


class TestNetworkBatchPlacement:
    """The TorNetwork batch APIs the publisher rides must equal the scalar
    per-onion lookups on a realistically sized ring."""

    def test_replica_lists_batch_matches_scalar(self, network):
        onions = _onions(bytes([value + 1]) * 11 for value in range(10))
        now = network.clock.now
        per_replica = network.responsible_replica_lists_batch(onions, now)
        for onion, lists in zip(onions, per_replica):
            assert lists == [
                responsible_for_replica(network.consensus, onion, now, replica)
                for replica in range(REPLICAS)
            ]


@st.composite
def histories_and_requests(draw):
    """A RingHistory (varying rings, possibly empty) plus rate requests."""
    history = RingHistory()
    snapshots = draw(st.integers(min_value=0, max_value=5))
    for index in range(snapshots):
        members = draw(st.integers(min_value=0, max_value=10))
        points = sorted(
            set(draw(st.lists(_POINT, min_size=members, max_size=members)))
        )
        attacker = (
            set(draw(st.lists(st.sampled_from(points), max_size=len(points))))
            if points
            else set()
        )
        history.record(BASE + (index + 1) * HOUR, points, attacker)
    requests = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        desc_id = draw(st.binary(min_size=20, max_size=20))
        found = draw(st.integers(min_value=0, max_value=6))
        missing = draw(st.integers(min_value=0, max_value=6))
        kind = draw(st.integers(min_value=0, max_value=2))
        if kind == 0:
            validity = None
        elif kind == 1:
            # Zero-length window: no snapshot can overlap it, which must
            # drive the full-sweep fallback identically on both paths.
            when = BASE + draw(st.integers(0, snapshots + 1)) * HOUR
            validity = (when, when)
        else:
            start = BASE + draw(st.integers(-2, max(0, snapshots))) * HOUR
            validity = (start, start + draw(st.integers(1, 3 * HOUR)))
        requests.append((desc_id, found, missing, validity))
    return history, requests


def _covered_and_uncovered():
    """One snapshot of a five-point ring whose first point is the attacker's.

    An ID just below that point has it among its responsible HSDirs (one
    slot held); an ID just above it has none, so its rate falls through
    to the zero-coverage ``HOUR`` floor.  Both run on every test run,
    whatever Hypothesis draws.
    """
    history = RingHistory()
    history.record(BASE + HOUR, _FIVE, {_FIVE[0]})
    covered = (_FIVE[0] - 1).to_bytes(20, "big")
    uncovered = (_FIVE[0] + 1).to_bytes(20, "big")
    return history, [(covered, 2, 1, None), (uncovered, 3, 0, None)]


def _wrapped_runs():
    """Responsible runs that wrap past the top of the ring, and a ring of
    fewer members than the replica fan-out.

    The attacker holds the two lowest points of a five-point ring, so IDs
    whose run starts near the top reach them only through the wrap; the
    second snapshot's two-member ring has every ID's run cover both.
    """
    history = RingHistory()
    history.record(BASE + HOUR, _FIVE, set(_FIVE[:2]))
    history.record(BASE + 2 * HOUR, _FIVE[:2], {_FIVE[1]})
    ids = (_FIVE[-1] + 1, _FIVE[-1] - 1, _FIVE[3], _FIVE[0])
    return history, [
        (point.to_bytes(20, "big"), 4, 1, None) for point in ids
    ]


class TestNormalizedRatesBatch:
    @settings(max_examples=80, deadline=None)
    @given(case=histories_and_requests())
    @example(case=_covered_and_uncovered())
    @example(case=_wrapped_runs())
    def test_matches_scalar_bit_for_bit(self, case):
        history, requests = case
        expected = [
            history.normalized_rate(desc_id, found, missing, validity=validity)
            for desc_id, found, missing, validity in requests
        ]
        assert history.normalized_rates_batch(requests) == expected

    @settings(max_examples=25, deadline=None)
    @given(case=histories_and_requests())
    @example(case=_covered_and_uncovered())
    @example(case=_wrapped_runs())
    def test_matches_scalar_without_numpy(self, case):
        history, requests = case
        expected = [
            history.normalized_rate(desc_id, found, missing, validity=validity)
            for desc_id, found, missing, validity in requests
        ]
        with numpy_unimportable():
            assert history.normalized_rates_batch(requests) == expected

    def test_empty_requests(self):
        assert RingHistory().normalized_rates_batch([]) == []


class TestBatchedStageCrashResume:
    """A death at the store commit of the batched harvest stage resumes to
    the same bytes a never-crashed run produces — the batch routing did not
    move any work across the checkpoint boundary."""

    def test_harvest_checkpoint_resumes_byte_identical(self, tmp_path):
        from repro.experiments.harvest import run_harvest
        from repro.population.generator import generate_population
        from repro.store import STORE_COMMIT_POINT, ArtifactStore

        population = generate_population(seed=5, scale=0.02)
        clean = run_harvest(seed=5, population=population).report.format()

        class Die(Exception):
            pass

        def die_at_commit(label):
            if label == STORE_COMMIT_POINT:
                raise Die(label)

        root = tmp_path / "store"
        store = ArtifactStore(root)
        store.crash_point = die_at_commit
        with pytest.raises(Die):
            run_harvest(seed=5, population=population, store=store)

        resumed_store = ArtifactStore(root)
        resumed = run_harvest(
            seed=5, population=population, store=resumed_store
        ).report.format()
        assert resumed == clean
        # The commit died before the index entry landed, so the resume is
        # a full recompute — through every batched stage — not a replay.
        events = [entry["event"] for entry in resumed_store.ledger.entries()]
        assert events == ["miss"]


class TestScheduleExpansion:
    @settings(max_examples=80, deadline=None)
    @given(
        days=st.integers(min_value=1, max_value=8),
        first=st.integers(min_value=1, max_value=100),
        span=st.integers(min_value=0, max_value=400),
        data=st.data(),
    )
    def test_day_of_port_matches_chunk_membership(self, days, first, span, data):
        schedule = ScanSchedule(
            start=BASE, days=days, first_port=first, last_port=first + span
        )
        port = data.draw(st.integers(min_value=first, max_value=first + span))
        owner = next(
            day
            for day, chunk in enumerate(schedule.all_ports())
            if port in chunk
        )
        assert schedule.day_of_port(port) == owner

    def test_day_of_port_rejects_out_of_range(self):
        schedule = ScanSchedule(start=BASE, days=3, first_port=10, last_port=20)
        with pytest.raises(AttackError):
            schedule.day_of_port(9)
        with pytest.raises(AttackError):
            schedule.day_of_port(21)

    @settings(max_examples=60, deadline=None)
    @given(
        days=st.integers(min_value=1, max_value=8),
        first=st.integers(min_value=1, max_value=60),
        span=st.integers(min_value=0, max_value=200),
        priority=st.lists(st.integers(min_value=1, max_value=300), max_size=6),
    )
    def test_expanded_campaign_matches_inline_filter(
        self, days, first, span, priority
    ):
        schedule = ScanSchedule(
            start=BASE, days=days, first_port=first, last_port=first + span
        )
        ordered = sorted(set(priority))
        expanded = schedule.expanded_campaign(priority)
        assert [row[:3] for row in expanded] == schedule.campaign()
        for _, _, chunk, extra in expanded:
            assert extra == [port for port in ordered if port not in chunk]
