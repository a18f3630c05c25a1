"""Byte-equivalence oracles for the four hot-path kernels.

The experiments run the batch kernels, so a speedup in one is only safe
because every batch kernel is *exactly* its scalar reference: same bytes
out for every input, with and without numpy, at every worker count.
These tests pin that contract — property tests over adversarial inputs
for the descriptor window (including the rollover edge that
``time_period_boundaries`` defines), randomized equivalence sweeps for
ring placement, consensus admission, and the time-series pipeline, and a
worker sweep through the resolver's pmap fan-out.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import accel
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
from repro.hsdir.directory import HSDirServer, RequestRecord
from repro.popularity.resolver import DescriptorResolver
from repro.popularity.timeseries import (
    classify_services_by_shape,
    classify_services_by_shape_scalar,
    merge_series,
    merge_series_scalar,
    series_from_log,
    series_from_log_scalar,
)
from repro.relay.flags import RelayFlags
from repro.sim.clock import DAY, HOUR, parse_date

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
        # Exact members and near-misses exercise the prefix-tie refinement.
        queries += points[:20]
        queries += [p - 1 for p in points[:20]] + [p + 1 for p in points[:20]]
        assert responsible_positions_batch(queries, points) == [
            responsible_positions(q, points) for q in queries
        ]

    def test_shared_prefix_collisions(self):
        # Members and queries that agree on the top 64 bits force the exact
        # integer bisect to decide every placement.
        base = 0xDEADBEEF << 96
        points = sorted(base + low for low in (5, 9, 14, 200, 3000))
        queries = [base + low for low in range(0, 3100, 7)]
        assert responsible_positions_batch(queries, points) == [
            responsible_positions(q, points) for q in queries
        ]

    def test_numpy_fallback(self, monkeypatch):
        monkeypatch.setattr(accel, "numpy", lambda: None)
        points = self._points(64, seed=3)
        rng = random.Random(4)
        queries = [int.from_bytes(rng.randbytes(20), "big") for _ in range(64)]
        assert responsible_positions_batch(queries, points) == [
            responsible_positions(q, points) for q in queries
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
    servers = [HSDirServer(relay_id=i, keep_log=True) for i in range(directories)]
    ids = {f"svc{i}": rng.randbytes(20) for i in range(services)}
    for desc in ids.values():
        for _ in range(per_service):
            rng.choice(servers).request_log.append(
                RequestRecord(
                    time=JAN28 + rng.randrange(0, 4 * DAY),
                    descriptor_id=desc,
                    found=True,
                )
            )
    return servers, ids


class TestTimeseriesEquivalence:
    def test_series_and_merge_and_classify(self):
        servers, ids = _loaded_servers(3, 12, 120, seed=10)
        start, end = JAN28, JAN28 + 4 * DAY
        merged = {}
        for service, desc in ids.items():
            per_server_batch = [
                series_from_log(s, start, end, descriptor_ids=[desc])
                for s in servers
            ]
            per_server_scalar = [
                series_from_log_scalar(s, start, end, descriptor_ids=[desc])
                for s in servers
            ]
            assert per_server_batch == per_server_scalar
            merged[service] = merge_series(per_server_batch)
            assert merged[service] == merge_series_scalar(per_server_scalar)
        assert classify_services_by_shape(merged) == (
            classify_services_by_shape_scalar(merged)
        )

    def test_whole_log_series(self):
        servers, _ = _loaded_servers(2, 4, 80, seed=11)
        for server in servers:
            assert series_from_log(
                server, JAN28, JAN28 + 4 * DAY, bucket_seconds=HOUR
            ) == series_from_log_scalar(
                server, JAN28, JAN28 + 4 * DAY, bucket_seconds=HOUR
            )

    def test_numpy_fallback(self, monkeypatch):
        servers, ids = _loaded_servers(2, 6, 60, seed=12)
        start, end = JAN28, JAN28 + 2 * DAY
        with_numpy = {
            service: merge_series(
                [
                    series_from_log(s, start, end, descriptor_ids=[desc])
                    for s in servers
                ]
            )
            for service, desc in ids.items()
        }
        labels_numpy = classify_services_by_shape(with_numpy)
        monkeypatch.setattr(accel, "numpy", lambda: None)
        without_numpy = {
            service: merge_series(
                [
                    series_from_log(s, start, end, descriptor_ids=[desc])
                    for s in servers
                ]
            )
            for service, desc in ids.items()
        }
        assert without_numpy == with_numpy
        assert classify_services_by_shape(without_numpy) == labels_numpy

    def test_classification_at_the_tolerance_boundary(self):
        # The machine/human call divides at cv == tolerance * floor; exact
        # integer moments keep scalar and batch on the same side even there.
        from repro.popularity.timeseries import RequestTimeSeries

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
            classify_services_by_shape_scalar(services)
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
        baseline = DescriptorResolver(onions, JAN28, FEB8, workers=1)
        for workers in (2, 8):
            other = DescriptorResolver(onions, JAN28, FEB8, workers=workers)
            assert other._index == baseline._index
            assert [other.validity_of(d) for d in other._index] == [
                baseline.validity_of(d) for d in baseline._index
            ]
            assert other.collisions == baseline.collisions
