"""Tests for repro.hsdir.directory."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DescriptorError, ReproError
from repro.hsdir.directory import HSDirServer, StoredDescriptor
from repro.popularity.timeseries import series_by_owner
from repro.sim.clock import DAY, HOUR


def make_stored(desc_id=b"\x01" * 20, published_at=0, der=b"key"):
    return StoredDescriptor(
        descriptor_id=desc_id, public_der=der, replica=0, published_at=published_at
    )


class TestStoreAndFetch:
    def test_roundtrip(self):
        server = HSDirServer(relay_id=1)
        server.store(make_stored(), now=0)
        assert server.fetch(b"\x01" * 20, now=HOUR) is not None

    def test_missing_descriptor(self):
        server = HSDirServer(relay_id=1)
        assert server.fetch(b"\x02" * 20, now=0) is None

    def test_bad_descriptor_id_rejected(self):
        server = HSDirServer(relay_id=1)
        with pytest.raises(DescriptorError):
            server.store(make_stored(desc_id=b"short"), now=0)

    def test_rejected_batch_stores_nothing(self):
        server = HSDirServer(relay_id=1)
        with pytest.raises(DescriptorError):
            server.store_many([make_stored(), make_stored(desc_id=b"short")], now=0)
        assert server.stored_descriptors(now=0) == []
        assert server.publishes_received == 0

    def test_store_replaces(self):
        server = HSDirServer(relay_id=1)
        server.store(make_stored(der=b"old"), now=0)
        server.store(make_stored(der=b"new", published_at=1), now=1)
        assert server.fetch(b"\x01" * 20, now=2).public_der == b"new"

    def test_publish_counter(self):
        server = HSDirServer(relay_id=1)
        server.store(make_stored(), now=0)
        server.store(make_stored(desc_id=b"\x02" * 20), now=0)
        assert server.publishes_received == 2


class TestExpiry:
    def test_descriptor_expires_after_retention(self):
        """HSDirs 'responsible for the previous time period erase its
        descriptor from the memory' (Section II)."""
        server = HSDirServer(relay_id=1)
        server.store(make_stored(published_at=0), now=0)
        assert server.fetch(b"\x01" * 20, now=DAY - 1) is not None
        assert server.fetch(b"\x01" * 20, now=DAY + 1) is None

    def test_stored_descriptors_filters_expired(self):
        server = HSDirServer(relay_id=1)
        server.store(make_stored(published_at=0), now=0)
        server.store(
            make_stored(desc_id=b"\x02" * 20, published_at=DAY), now=DAY
        )
        remaining = server.stored_descriptors(now=DAY + HOUR)
        assert [d.descriptor_id for d in remaining] == [b"\x02" * 20]


class TestRequestAccounting:
    def test_counts_found_and_missing(self):
        server = HSDirServer(relay_id=1)
        server.store(make_stored(), now=0)
        server.fetch(b"\x01" * 20, now=1)
        server.fetch(b"\x01" * 20, now=2)
        server.fetch(b"\x09" * 20, now=3)
        assert server.request_counts[b"\x01" * 20] == [2, 0]
        assert server.request_counts[b"\x09" * 20] == [0, 1]
        assert server.total_requests == 3

    def test_unlogged_fetch_not_counted(self):
        server = HSDirServer(relay_id=1)
        server.store(make_stored(), now=0)
        server.fetch(b"\x01" * 20, now=1, log=False)
        assert server.total_requests == 0

    def test_hourly_tally_kept_by_default(self):
        server = HSDirServer(relay_id=1)
        for t in (5, HOUR - 1, HOUR, 3 * HOUR + 7):
            server.fetch(b"\x01" * 20, now=t)
        server.fetch(b"\x02" * 20, now=HOUR + 1)
        server.fetch(b"\x02" * 20, now=HOUR + 2, log=False)
        assert server.hourly_requests() == {
            0: {b"\x01" * 20: 2},
            HOUR: {b"\x01" * 20: 1, b"\x02" * 20: 1},
            3 * HOUR: {b"\x01" * 20: 1},
        }
        assert server.total_requests == 5

    def test_keep_log_false_skips_detail(self):
        server = HSDirServer(relay_id=1, keep_log=False)
        server.fetch(b"\x01" * 20, now=5)
        assert server._hourly == {}
        assert server.total_requests == 1

    @pytest.mark.parametrize(
        "read",
        [
            lambda server: server.hourly_requests(),
            lambda server: series_by_owner(
                [server.hourly_requests()], {b"\x01" * 20: "a"}, 0, 2 * HOUR
            ),
        ],
        ids=["hourly_requests", "series_by_owner"],
    )
    def test_log_less_directory_refuses_log_reads(self, read):
        # Without a tally the honest answer is "unknown", not zero traffic.
        server = HSDirServer(relay_id=7, keep_log=False)
        for t in (HOUR + 1, HOUR + 2, HOUR + 3):
            server.fetch(b"\x01" * 20, now=t)
        assert server.request_counts[b"\x01" * 20] == [0, 3]
        with pytest.raises(ReproError, match="HSDir 7 keeps no request log"):
            read(server)


class WalkingHSDirServer(HSDirServer):
    """Reference: the hourly sweep walks the whole store every time."""

    def _expire(self, now):
        if int(now) - self._last_expiry_sweep < self.EXPIRY_GRANULARITY:
            return
        self._last_expiry_sweep = int(now)
        cutoff = int(now) - self.RETENTION
        expired = [
            desc_id
            for desc_id, stored in self._store.items()
            if stored.published_at <= cutoff
        ]
        for desc_id in expired:
            del self._store[desc_id]


#: A handful of IDs, so stores replace and fetches hit.
IDS = [bytes([i]) * 20 for i in range(1, 7)]

operation = st.one_of(
    st.tuples(
        st.just("store"),
        st.sampled_from(IDS),
        st.integers(0, 2 * DAY),
        st.binary(min_size=1, max_size=2),
    ),
    st.tuples(
        st.just("batch"),
        st.lists(
            st.tuples(
                st.sampled_from(IDS),
                st.integers(0, 2 * DAY),
                st.binary(min_size=1, max_size=2),
            ),
            max_size=4,
        ),
    ),
    st.tuples(st.just("fetch"), st.sampled_from(IDS), st.booleans()),
    st.tuples(st.just("read")),
    st.tuples(st.just("clock"), st.integers(-2 * HOUR, DAY // 2)),
)


class TestExpiryWatermark:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(operation, max_size=60))
    def test_matches_walking_reference(self, operations):
        """Stores (with arbitrary publication ages), batches landed with
        one ``store_many`` against one ``store`` each, logged and unlogged
        fetches, read-outs and a clock that also steps back, as client
        fetch times inside a window do: the watermark server keeps the
        same descriptors in the same order with the same accounting."""
        server, reference = HSDirServer(relay_id=1), WalkingHSDirServer(relay_id=1)
        now = 3 * DAY
        for op in operations:
            if op[0] == "store":
                _, desc_id, age, der = op
                stored = make_stored(desc_id, published_at=now - age, der=der)
                server.store(stored, now)
                reference.store(stored, now)
            elif op[0] == "batch":
                batch = [
                    make_stored(desc_id, published_at=now - age, der=der)
                    for desc_id, age, der in op[1]
                ]
                server.store_many(batch, now)
                for stored in batch:
                    reference.store(stored, now)
            elif op[0] == "fetch":
                _, desc_id, log = op
                assert server.fetch(desc_id, now, log=log) == reference.fetch(
                    desc_id, now, log=log
                )
            elif op[0] == "read":
                assert server.stored_descriptors(now) == (
                    reference.stored_descriptors(now)
                )
            else:
                now += op[1]
            assert list(server._store) == list(reference._store)
        assert server.stored_descriptors(now) == reference.stored_descriptors(now)
        assert server.request_counts == reference.request_counts
        assert server.hourly_requests() == reference.hourly_requests()
        assert server.publishes_received == reference.publishes_received

    def test_sweep_without_due_descriptors_skips_the_walk(self, monkeypatch):
        server = HSDirServer(relay_id=1)
        server.store(make_stored(published_at=DAY), now=DAY)
        walked = []
        original = server._store
        monkeypatch.setattr(
            server, "_store", _CountingDict(original, walked), raising=True
        )
        server.fetch(b"\x02" * 20, now=DAY + 2 * HOUR)  # sweep due, nothing old
        assert walked == []
        server.store(
            make_stored(b"\x03" * 20, published_at=2 * DAY), now=2 * DAY
        )
        server.fetch(b"\x02" * 20, now=2 * DAY + 2 * HOUR)  # the first expires
        assert walked == ["items"]
        assert [d.descriptor_id for d in server.stored_descriptors(
            2 * DAY + 2 * HOUR
        )] == [b"\x03" * 20]
        server.fetch(b"\x02" * 20, now=2 * DAY + 4 * HOUR)  # watermark moved on
        assert walked == ["items"]


class _CountingDict(dict):
    def __init__(self, contents, walked):
        super().__init__(contents)
        self._walked = walked

    def items(self):
        self._walked.append("items")
        return super().items()
