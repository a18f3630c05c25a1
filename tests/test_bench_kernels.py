"""Byte-equivalence oracles for the four hot-path kernels.

The experiments run the batch kernels, so a speedup in one is only safe
because every batch kernel is *exactly* its scalar reference: same bytes
out for every input, at every worker count.  These tests pin that
contract — property tests over adversarial inputs for the descriptor
window (including the rollover edge that ``time_period_boundaries``
defines), for ring placement and for the time-series pipeline (window
edges included), randomized sweeps for consensus admission, and a worker
sweep through the resolver's pmap fan-out.  The ring and time-series
kernels also run with numpy made unimportable: none of them needs it.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto.descriptor_id import (
    descriptor_ids_for_window,
    descriptor_ids_for_window_batch,
    descriptor_index_entries,
    descriptor_index_entries_batch,
    permanent_id_from_onion,
    time_period_boundaries,
)
from repro.crypto.onion import onion_address_from_key
from repro.crypto.ring import (
    FingerprintRing,
    responsible_positions,
    responsible_positions_batch,
)
from repro.dirauth.consensus import (
    ConsensusEntry,
    apply_per_ip_limit,
    apply_per_ip_limit_scalar,
)
from repro.errors import ReproError
from repro.popularity.resolver import DescriptorResolver
from repro.popularity.timeseries import (
    RequestTimeSeries,
    classify_services_by_shape,
    series_by_owner,
)
from repro.relay.flags import RelayFlags
from repro.sim.clock import DAY, HOUR, parse_date
from tests.conftest import numpy_unimportable
from tests.test_popularity_timeseries import RecordingHSDirServer, series_from_log

JAN28 = parse_date("2013-01-28")
FEB8 = parse_date("2013-02-08")


def make_onions(count, seed=0):
    rng = random.Random(seed)
    return [onion_address_from_key(rng.randbytes(140)) for _ in range(count)]


class TestDescriptorWindowEquivalence:
    @settings(max_examples=50)
    @given(
        st.integers(min_value=0, max_value=99),  # which onion
        st.integers(min_value=-3 * DAY, max_value=3 * DAY),  # start offset
        st.integers(min_value=0, max_value=14 * DAY),  # window length
    )
    def test_batch_equals_scalar(self, index, offset, length):
        """Property: the batched window derivation is the scalar one."""
        onions = make_onions(100, seed=7)
        onion = onions[index]
        start = JAN28 + offset
        end = start + length
        assert descriptor_ids_for_window_batch([onion], start, end) == [
            descriptor_ids_for_window(onion, start, end)
        ]

    @settings(max_examples=25)
    @given(
        st.integers(min_value=0, max_value=49),
        st.integers(min_value=-2, max_value=2),  # seconds around the edge
    )
    @example(0, 0)  # a window ending exactly on a period edge, every run
    def test_rollover_edge(self, index, jitter):
        """Property: windows pinned to a period boundary (±2 s) agree too.

        The rotation offset staggers each onion's period edges away from
        midnight; a window that starts or ends exactly on (or one second
        either side of) that service-specific boundary is where an
        off-by-one in the shared secret-part table would show.
        """
        onion = make_onions(50, seed=9)[index]
        boundary, next_boundary = time_period_boundaries(
            JAN28 + 5 * DAY, permanent_id_from_onion(onion)
        )
        for start, end in (
            (boundary + jitter, next_boundary + jitter),
            (boundary + jitter, boundary + jitter),  # zero-width window
            (boundary - DAY + jitter, next_boundary + DAY + jitter),
        ):
            if end < start:
                continue
            assert descriptor_ids_for_window_batch([onion], start, end) == [
                descriptor_ids_for_window(onion, start, end)
            ]

    def test_whole_database_with_validity(self):
        onions = make_onions(40, seed=3)
        batch = descriptor_index_entries_batch(onions, JAN28, FEB8)
        scalar = [
            descriptor_index_entries(onion, JAN28, FEB8) for onion in onions
        ]
        assert batch == scalar

    def test_cookie_threads_through(self):
        onions = make_onions(5, seed=4)
        batch = descriptor_index_entries_batch(
            onions, JAN28, FEB8, cookie=b"secret"
        )
        scalar = [
            descriptor_index_entries(onion, JAN28, FEB8, cookie=b"secret")
            for onion in onions
        ]
        assert batch == scalar
        assert batch != descriptor_index_entries_batch(onions, JAN28, FEB8)


_POINT = st.integers(min_value=0, max_value=2**160 - 1)


class TestRingPlacementEquivalence:
    def _points(self, members, seed):
        rng = random.Random(seed)
        return sorted(
            {int.from_bytes(rng.randbytes(20), "big") for _ in range(members)}
        )

    def test_batch_equals_scalar_random(self):
        points = self._points(200, seed=1)
        rng = random.Random(2)
        queries = [int.from_bytes(rng.randbytes(20), "big") for _ in range(500)]
        # Exact members and their neighbours sit on the bisect's edges.
        queries += points[:20]
        queries += [p - 1 for p in points[:20]] + [p + 1 for p in points[:20]]
        assert responsible_positions_batch(queries, points) == [
            responsible_positions(q, points) for q in queries
        ]

    def test_shared_prefix_collisions(self):
        # Members and queries that agree on their top 64 bits: only the
        # low bits of the full 160-bit comparison decide each placement.
        base = 0xDEADBEEF << 96
        points = sorted(base + low for low in (5, 9, 14, 200, 3000))
        queries = [base + low for low in range(0, 3100, 7)]
        assert responsible_positions_batch(queries, points) == [
            responsible_positions(q, points) for q in queries
        ]

    def test_numpy_fallback(self):
        points = self._points(64, seed=3)
        rng = random.Random(4)
        queries = [int.from_bytes(rng.randbytes(20), "big") for _ in range(64)]
        with numpy_unimportable():
            got = responsible_positions_batch(queries, points)
        assert got == [responsible_positions(q, points) for q in queries]

    @settings(max_examples=60, deadline=None)
    @given(
        members=st.lists(_POINT, max_size=12, unique=True),
        queries=st.lists(_POINT, max_size=12),
        count=st.integers(min_value=1, max_value=4),
    )
    # The top member's run wraps to the bottom: start + take > size.
    @example(members=[10, 20, 30, 40], queries=[35, 40, 2**160 - 1], count=3)
    # A ring of fewer than three members.
    @example(members=[7, 99], queries=[0, 7, 50, 100], count=3)
    # Queries equal to member points.
    @example(members=[5, 9, 14], queries=[5, 9, 14], count=2)
    def test_batch_equals_per_item_reference(self, members, queries, count):
        points = sorted(members)
        assert responsible_positions_batch(queries, points, count) == [
            responsible_positions(q, points, count) for q in queries
        ]

    def test_ring_responsible_for_many(self):
        rng = random.Random(5)
        ring = FingerprintRing([rng.randbytes(20) for _ in range(50)])
        ids = [rng.randbytes(20) for _ in range(40)]
        assert ring.responsible_for_many(ids) == [
            ring.responsible_for(desc) for desc in ids
        ]


def _candidates(count, ips, seed):
    rng = random.Random(seed)
    pool = [rng.getrandbits(32) for _ in range(ips)]
    return [
        ConsensusEntry(
            fingerprint=rng.randbytes(20),
            nickname=f"relay{i}",
            ip=rng.choice(pool),
            or_port=9001,
            bandwidth=rng.randrange(1, 1000),
            flags=RelayFlags.RUNNING,
        )
        for i in range(count)
    ]


class TestConsensusEquivalence:
    @pytest.mark.parametrize("limit", [1, 2, 3])
    def test_batch_equals_scalar(self, limit):
        candidates = _candidates(300, ips=40, seed=6)
        assert apply_per_ip_limit(candidates, limit) == apply_per_ip_limit_scalar(
            candidates, limit
        )

    def test_bandwidth_ties(self):
        # Equal bandwidths force the fingerprint tiebreak in both paths.
        candidates = [
            entry._replace(bandwidth=100) for entry in _candidates(60, 5, seed=7)
        ]
        assert apply_per_ip_limit(candidates) == apply_per_ip_limit_scalar(
            candidates
        )

    def test_empty_and_singleton(self):
        assert apply_per_ip_limit([]) == []
        single = _candidates(1, 1, seed=8)
        assert apply_per_ip_limit(single) == single


def _loaded_servers(directories, services, per_service, seed):
    rng = random.Random(seed)
    servers = [RecordingHSDirServer(relay_id=i) for i in range(directories)]
    ids = {f"svc{i}": rng.randbytes(20) for i in range(services)}
    for desc in ids.values():
        for _ in range(per_service):
            rng.choice(servers).fetch(desc, now=JAN28 + rng.randrange(0, 4 * DAY))
    return servers, ids


def _reference_labels(series_per_service, tolerance=2.0, min_requests=50):
    """Per-series labels from :class:`RequestTimeSeries`'s own methods."""
    return {
        service: "low-volume"
        if series.total < min_requests
        else "machine"
        if series.is_machine_like(tolerance)
        else "human"
        for service, series in series_per_service.items()
    }


def _records(servers):
    return [record for server in servers for record in server.records]


def _tallies(servers):
    return [server.hourly_requests() for server in servers]


_IDS = [bytes([value]) * 20 for value in range(5)]


@st.composite
def owned_fetches(draw):
    """Fetch streams at a few directories, an ID → owner map and a window.

    The window and bucket lie on whole hours, and fetch times favour the
    window's edges: exactly ``start`` (counted), exactly ``end`` (not) and
    one second either side.
    """
    start = draw(st.integers(min_value=0, max_value=3)) * HOUR
    end = start + draw(st.integers(min_value=1, max_value=5)) * HOUR
    bucket = draw(st.sampled_from((HOUR, 2 * HOUR, 3 * HOUR)))
    fetches = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),  # directory
                st.one_of(
                    st.sampled_from((start, end, start - 1, end - 1)),
                    st.integers(min_value=0, max_value=9 * HOUR),
                ),
                st.sampled_from(_IDS),
                st.booleans(),  # logged
            ),
            max_size=40,
        )
    )
    owned = draw(st.lists(st.sampled_from(_IDS), unique=True, max_size=4))
    owner_of = {desc: draw(st.sampled_from("abc")) for desc in owned}
    return fetches, owner_of, start, end, bucket


def _replay(fetches):
    servers = [RecordingHSDirServer(relay_id=i) for i in range(3)]
    for directory, time, desc, logged in fetches:
        servers[directory].fetch(desc, now=time, log=logged)
    return servers


#: Fetches at exactly ``start`` (counted) and exactly ``end`` (not).
_WINDOW_EDGES = (
    [
        (0, HOUR, _IDS[0], True),
        (1, 3 * HOUR, _IDS[0], True),
        (0, 3 * HOUR, _IDS[1], True),
        (2, 3 * HOUR - 1, _IDS[1], True),
        (2, 2 * HOUR, _IDS[1], False),
    ],
    {_IDS[0]: "a", _IDS[1]: "b", _IDS[2]: "b"},
    HOUR,
    3 * HOUR,
    HOUR,
)


class TestTimeseriesEquivalence:
    def test_series_and_merge_and_classify(self):
        # Adding the fleet's hourly tallies in one pass equals bucketing
        # each directory's fetch records per service and summing bucket by
        # bucket.
        servers, ids = _loaded_servers(3, 12, 120, seed=10)
        start, end = JAN28, JAN28 + 4 * DAY
        summed = {}
        for service, desc in sorted(ids.items()):
            per_server = [
                series_from_log(s.records, start, end, descriptor_ids=[desc])
                for s in servers
            ]
            summed[service] = RequestTimeSeries(
                start=start,
                bucket_seconds=HOUR,
                counts=[sum(column) for column in zip(*(p.counts for p in per_server))],
            )
        owner_of = {desc: service for service, desc in ids.items()}
        by_owner = series_by_owner(_tallies(servers), owner_of, start, end)
        assert by_owner == summed
        assert classify_services_by_shape(by_owner) == _reference_labels(summed)

    def test_whole_log_series(self):
        # One owner for every ID: its series is the directory's whole log.
        servers, ids = _loaded_servers(2, 4, 80, seed=11)
        for server in servers:
            whole = series_from_log(
                server.records, JAN28, JAN28 + 4 * DAY, bucket_seconds=HOUR
            )
            assert sum(whole.counts) == len(server.records)
            assert series_by_owner(
                [server.hourly_requests()],
                {desc: "all" for desc in ids.values()},
                JAN28,
                JAN28 + 4 * DAY,
                bucket_seconds=HOUR,
            ) == {"all": whole}

    def test_numpy_fallback(self):
        servers, ids = _loaded_servers(2, 6, 60, seed=12)
        start, end = JAN28, JAN28 + 2 * DAY
        owner_of = {desc: service for service, desc in ids.items()}
        with numpy_unimportable():
            by_owner = series_by_owner(_tallies(servers), owner_of, start, end)
            labels = classify_services_by_shape(by_owner)
        records = _records(servers)
        assert by_owner == {
            service: series_from_log(records, start, end, descriptor_ids=[desc])
            for service, desc in sorted(ids.items())
        }
        assert labels == _reference_labels(by_owner)

    @settings(max_examples=80, deadline=None)
    @given(case=owned_fetches())
    @example(case=_WINDOW_EDGES)
    def test_series_by_owner_matches_per_owner_scan(self, case):
        fetches, owner_of, start, end, bucket = case
        servers = _replay(fetches)
        records = _records(servers)
        expected = {
            owner: series_from_log(
                records,
                start,
                end,
                bucket,
                descriptor_ids=[d for d, o in owner_of.items() if o == owner],
            )
            for owner in sorted(set(owner_of.values()))
        }
        got = series_by_owner(_tallies(servers), owner_of, start, end, bucket)
        assert list(got) == list(expected)
        assert got == expected

    def test_window_edges_by_hand(self):
        fetches, owner_of, start, end, bucket = _WINDOW_EDGES
        got = series_by_owner(
            _tallies(_replay(fetches)), owner_of, start, end, bucket
        )
        assert got["a"].counts == [1, 0]
        assert got["b"].counts == [0, 1]

    def test_series_by_owner_rejects_an_empty_window(self):
        with pytest.raises(ReproError):
            series_by_owner([], {}, HOUR, HOUR)

    def test_loaded_servers_merged(self):
        servers, ids = _loaded_servers(3, 12, 120, seed=10)
        start, end = JAN28, JAN28 + 4 * DAY
        owner_of = {desc: service for service, desc in ids.items()}
        by_owner = series_by_owner(_tallies(servers), owner_of, start, end)
        records = _records(servers)
        assert by_owner == {
            service: series_from_log(records, start, end, descriptor_ids=[desc])
            for service, desc in sorted(ids.items())
        }
        assert classify_services_by_shape(by_owner) == _reference_labels(by_owner)

    @settings(max_examples=80, deadline=None)
    @given(
        counts=st.lists(
            st.lists(st.integers(min_value=0, max_value=400), max_size=30),
            max_size=8,
        ),
        tolerance=st.sampled_from((0.5, 1.0, 2.0, 3.0)),
        min_requests=st.integers(min_value=0, max_value=200),
    )
    def test_classify_matches_is_machine_like(self, counts, tolerance, min_requests):
        services = {
            f"s{index}": RequestTimeSeries(start=0, bucket_seconds=HOUR, counts=row)
            for index, row in enumerate(counts)
        }
        assert classify_services_by_shape(
            services, tolerance, min_requests
        ) == _reference_labels(services, tolerance, min_requests)

    def test_classification_at_the_tolerance_boundary(self):
        # The machine/human call divides at cv == tolerance * floor; exact
        # integer moments keep the batch and the per-series call on the
        # same side even there.
        flat = RequestTimeSeries(start=0, bucket_seconds=HOUR, counts=[100] * 24)
        spiky = RequestTimeSeries(
            start=0, bucket_seconds=HOUR, counts=[0, 400] * 12
        )
        quiet = RequestTimeSeries(start=0, bucket_seconds=HOUR, counts=[1] * 24)
        # Mean 4, variance 16: cv is exactly 1.0 == 2.0 * (1 / sqrt(4)).
        edge = RequestTimeSeries(start=0, bucket_seconds=HOUR, counts=[0, 8] * 12)
        services = {
            "flat": flat, "spiky": spiky, "quiet": quiet, "flat2": flat, "edge": edge
        }
        assert classify_services_by_shape(services) == (
            _reference_labels(services)
        ) == {
            "flat": "machine",
            "spiky": "human",
            "quiet": "low-volume",
            "flat2": "machine",
            "edge": "machine",
        }


class TestResolverWorkerEquivalence:
    def test_index_identical_at_any_worker_count(self):
        onions = make_onions(60, seed=13)
        # Every ID the database derives, so the whole index is compared.
        requested = [
            desc
            for ids in descriptor_ids_for_window_batch(onions, JAN28, FEB8)
            for desc in ids
        ]
        baseline = DescriptorResolver(onions, JAN28, FEB8, requested, workers=1)
        for workers in (2, 8):
            other = DescriptorResolver(
                onions, JAN28, FEB8, requested, workers=workers
            )
            assert other._index == baseline._index
            assert [other.validity_of(d) for d in other._index] == [
                baseline.validity_of(d) for d in baseline._index
            ]
            assert other.collisions == baseline.collisions
