"""Tests for repro.popularity.resolver."""

import concurrent.futures
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.descriptor_id import (
    descriptor_ids_for_day,
    descriptor_ids_for_window_batch,
)
from repro.crypto.onion import onion_address_from_key
from repro.obs.scope import ensure_observer
from repro.popularity import resolver as resolver_module
from repro.popularity.resolver import DescriptorResolver
from repro.sim.clock import DAY, parse_date

JAN28 = parse_date("2013-01-28")
FEB8 = parse_date("2013-02-08")


def make_onions(count, seed=0):
    rng = random.Random(seed)
    return [onion_address_from_key(rng.randbytes(140)) for _ in range(count)]


def derived_ids(onions, start=JAN28, end=FEB8):
    """Every descriptor ID the onions use in the window, in database order."""
    return [
        desc
        for ids in descriptor_ids_for_window_batch(onions, start, end)
        for desc in ids
    ]


CLASH_ID = b"\xaa" * 20


def colliding_entries(onions):
    """Entry kernel under which every onion claims the same 20-byte ID.

    A forged database would look exactly like this; each onion's second
    ID, and its validity period, still differ.
    """

    def entries(batch, start, end, cookie=b""):
        return [
            [
                (CLASH_ID, JAN28 + onions.index(onion) * DAY),
                (bytes([onions.index(onion)]) * 20, JAN28),
            ]
            for onion in batch
        ]

    return entries


def duplicate_entries(batch, start, end, cookie=b""):
    """Both replicas of one onion land on the same ID (with two periods).

    Merely redundant, not a cross-service collision.
    """
    return [[(b"\xbb" * 20, JAN28), (b"\xbb" * 20, JAN28 + DAY)] for _ in batch]


class TestIndexConstruction:
    def test_index_size(self):
        onions = make_onions(10)
        everything = DescriptorResolver(
            onions, JAN28, JAN28 + 2 * DAY, derived_ids(onions, JAN28, JAN28 + 2 * DAY)
        )
        # 10 onions × (3 or 4 periods) × 2 replicas.
        assert everything.database_size == 10
        assert 10 * 6 <= everything.index_size <= 10 * 8
        # Only requested IDs are indexed: one day's pair per onion, plus
        # IDs no onion derives.
        one_day = [
            desc for onion in onions for desc in descriptor_ids_for_day(onion, JAN28)
        ]
        resolver = DescriptorResolver(
            onions, JAN28, JAN28 + 2 * DAY, one_day + [b"\x55" * 20, b"\x66" * 20]
        )
        assert resolver.database_size == 10
        assert resolver.index_size == 20

    def test_lookup_known_id(self):
        onions = make_onions(3)
        desc_id = descriptor_ids_for_day(onions[0], JAN28 + 3 * DAY)[1]
        resolver = DescriptorResolver(onions, JAN28, FEB8, [desc_id])
        assert resolver.lookup(desc_id) == onions[0]

    def test_lookup_unknown_id(self):
        resolver = DescriptorResolver(make_onions(3), JAN28, FEB8, [b"\x55" * 20])
        assert resolver.lookup(b"\x55" * 20) is None

    def test_unrequested_id_does_not_resolve(self):
        onions = make_onions(3)
        requested, unrequested = descriptor_ids_for_day(onions[1], JAN28 + DAY)
        resolver = DescriptorResolver(onions, JAN28, FEB8, [requested])
        assert resolver.lookup(requested) == onions[1]
        assert resolver.lookup(unrequested) is None
        assert resolver.validity_of(unrequested) is None
        assert resolver.index_size == 1

    def test_healthy_window_has_no_collisions(self):
        onions = make_onions(50)
        resolver = DescriptorResolver(onions, JAN28, FEB8, derived_ids(onions))
        assert resolver.collisions == {}
        assert resolver.collision_count == 0

    def test_collision_recorded_first_claimant_wins(self, monkeypatch):
        onions = make_onions(3)
        monkeypatch.setattr(
            "repro.popularity.resolver.descriptor_index_entries_batch",
            colliding_entries(onions),
        )
        distinct = [bytes([index]) * 20 for index in range(3)]
        resolver = DescriptorResolver(onions, JAN28, FEB8, [CLASH_ID] + distinct)
        # The first claimant (input order) keeps the slot; later claimants
        # are counted instead of silently overwriting it.
        assert resolver.lookup(CLASH_ID) == onions[0]
        assert resolver.collisions == {CLASH_ID: [onions[0], onions[1], onions[2]]}
        assert resolver.collision_count == 2
        assert resolver.index_size == 4  # the clash + one distinct ID per onion
        # A clash on an ID nobody requested is not recorded.
        unasked = DescriptorResolver(onions, JAN28, FEB8, distinct)
        assert unasked.collisions == {}
        assert unasked.index_size == 3

    def test_same_onion_replica_overlap_is_not_a_collision(self, monkeypatch):
        onions = make_onions(1)
        monkeypatch.setattr(
            "repro.popularity.resolver.descriptor_index_entries_batch",
            duplicate_entries,
        )
        resolver = DescriptorResolver(onions, JAN28, FEB8, [b"\xbb" * 20])
        assert resolver.collisions == {}
        assert resolver.collision_count == 0
        assert resolver.lookup(b"\xbb" * 20) == onions[0]

    def test_one_pool_for_a_pooled_build(self, monkeypatch):
        # Each chunk returns only requested entries, so all chunks go
        # through one pmap call and one process pool.
        opened = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        onions = make_onions(200, seed=6)
        requested = derived_ids(onions)[::5]
        pooled = DescriptorResolver(onions, JAN28, FEB8, requested, workers=2)
        assert opened == [2]
        serial = DescriptorResolver(onions, JAN28, FEB8, requested, workers=1)
        assert opened == [2]
        assert pooled._index == serial._index
        assert pooled.index_size == len(requested)


class TestResolve:
    def test_splits_resolved_and_phantom(self):
        onions = make_onions(4)
        real_id = descriptor_ids_for_day(onions[1], JAN28 + DAY)[0]
        counts = {real_id: [7, 1], b"\x99" * 20: [0, 12]}
        resolver = DescriptorResolver(onions, JAN28, FEB8, counts)
        result = resolver.resolve(counts)
        assert result.resolved_ids == 1
        assert result.unresolved_ids == 1
        assert result.requests_per_onion[onions[1]] == 8
        assert result.resolved_requests == 8
        assert result.unresolved_requests == 12
        assert result.total_unique_ids == 2
        assert result.phantom_request_fraction == 0.6

    def test_both_replicas_merge_to_one_onion(self):
        onions = make_onions(1)
        ids = descriptor_ids_for_day(onions[0], JAN28)
        resolver = DescriptorResolver(onions, JAN28, FEB8, ids)
        result = resolver.resolve({ids[0]: [3, 0], ids[1]: [4, 0]})
        assert result.resolved_onion_count == 1
        assert result.requests_per_onion[onions[0]] == 7

    def test_empty(self):
        resolver = DescriptorResolver(make_onions(1), JAN28, FEB8, {})
        result = resolver.resolve({})
        assert result.total_unique_ids == 0
        assert result.phantom_request_fraction == 0.0

    def test_resolve_normalized_applies_rate(self):
        onions = make_onions(1)
        desc_id = descriptor_ids_for_day(onions[0], JAN28)[0]
        resolver = DescriptorResolver(onions, JAN28, FEB8, [desc_id])
        result = resolver.resolve_normalized(
            {desc_id: [5, 0]}, lambda d, f, m, validity: (f + m) * 10.0
        )
        assert result.requests_per_onion[onions[0]] == 50

    def test_resolver_provides_validity_to_normalizer(self):
        onions = make_onions(1)
        desc_id = descriptor_ids_for_day(onions[0], JAN28 + DAY)[0]
        resolver = DescriptorResolver(onions, JAN28, FEB8, [desc_id])
        seen = {}

        def normalizer(d, f, m, validity):
            seen["validity"] = validity
            return float(f + m)

        resolver.resolve_normalized({desc_id: [1, 0]}, normalizer)
        start, end = seen["validity"]
        assert end - start == DAY
        assert start <= JAN28 + DAY < end
        assert resolver.validity_of(desc_id) == (start, end)

    @settings(max_examples=25)
    @given(
        st.integers(min_value=0, max_value=30),  # which onion
        st.integers(min_value=0, max_value=11),  # day offset inside window
        st.integers(min_value=0, max_value=1),  # replica
    )
    def test_resolution_inverts_publication(self, index, day, replica):
        """Property: any descriptor ID a known onion publishes inside the
        window resolves back to that onion — clock skew of ±days included."""
        onions = make_onions(31, seed=4)
        onion = onions[index]
        desc_id = descriptor_ids_for_day(onion, JAN28 + day * DAY)[replica]
        resolver = DescriptorResolver(onions, JAN28, FEB8, [desc_id])
        result = resolver.resolve({desc_id: [1, 0]})
        assert result.requests_per_onion == {onion: 1}

    def test_outside_window_does_not_resolve(self):
        onions = make_onions(2, seed=5)
        stale = descriptor_ids_for_day(onions[0], JAN28 - 40 * DAY)[0]
        resolver = DescriptorResolver(onions, JAN28, FEB8, [stale])
        result = resolver.resolve({stale: [0, 5]})
        assert result.resolved_ids == 0
        assert result.unresolved_requests == 5


class EagerResolver(DescriptorResolver):
    """Reference: the eager build over every ID the database derives.

    One kernel call over the whole database, then an index slot and a
    validity tuple per first claim, requested or not.  Resolution itself
    is inherited, so the two differ only in which IDs are indexed and how
    they are derived.
    """

    def __init__(self, onion_database, window_start, window_end):
        self.window = (window_start, window_end)
        self._observer = ensure_observer(None)
        self._index = {}
        self._validity = {}
        self.collisions = {}
        onions = list(onion_database)
        self.database_size = len(onions)
        entry_lists = resolver_module.descriptor_index_entries_batch(
            onions, window_start, window_end
        )
        for onion, entries in zip(onions, entry_lists):
            for desc, period_start in entries:
                owner = self._index.get(desc)
                if owner is not None:
                    if owner != onion:
                        self.collisions.setdefault(desc, [owner]).append(onion)
                    continue
                self._index[desc] = onion
                self._validity[desc] = (period_start, period_start + DAY)


def _validity_weighted(desc_id, found, missing, validity):
    """A normaliser whose rate moves with the validity period it is given."""
    return (found + missing) * (1.0 + (validity[0] % 997) / 997)


def assert_matches_eager(onions, start, end, workers):
    reference = EagerResolver(onions, start, end)
    unknown = [b"\x00" * 20, b"\x99" * 20, b"\xbb" * 19 + b"\x00"]
    derived = list(reference._index)
    # Every third derived ID plus the unknowns, requested in a mixed order.
    counts = {
        desc_id: [index % 4, index % 3 + 1]
        for index, desc_id in enumerate(unknown + derived[::3])
    }
    resolver = DescriptorResolver(onions, start, end, counts, workers=workers)
    assert list(resolver._index) == [d for d in derived if d in counts]
    for desc_id in derived + unknown:
        if desc_id in counts:
            assert resolver.lookup(desc_id) == reference.lookup(desc_id)
            assert resolver.validity_of(desc_id) == reference.validity_of(desc_id)
        else:
            assert resolver.lookup(desc_id) is None
            assert resolver.validity_of(desc_id) is None
    assert resolver.collisions == {
        desc_id: claimants
        for desc_id, claimants in reference.collisions.items()
        if desc_id in counts
    }
    assert resolver.collision_count == sum(
        len(claimants) - 1 for claimants in resolver.collisions.values()
    )
    assert resolver.resolve(counts) == reference.resolve(counts)
    assert resolver.resolve_normalized(
        counts, _validity_weighted
    ) == reference.resolve_normalized(counts, _validity_weighted)


class TestRequestedIndexOracle:
    """The requested-only resolver agrees with the whole-database build."""

    POOL = make_onions(40, seed=21)

    @pytest.mark.parametrize("workers", [1, 2])
    @settings(max_examples=25, deadline=None)
    @given(
        picks=st.lists(st.integers(min_value=0, max_value=39), max_size=30),
        start_offset=st.integers(min_value=-3 * DAY, max_value=3 * DAY),
        span=st.integers(min_value=0, max_value=12 * DAY),
    )
    def test_random_databases_and_windows(self, workers, picks, start_offset, span):
        # Picks repeat onions, which must not count as collisions.
        onions = [self.POOL[index] for index in picks]
        start = JAN28 + start_offset
        assert_matches_eager(onions, start, start + span, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cross_onion_collisions(self, monkeypatch, workers):
        onions = make_onions(5, seed=2)
        monkeypatch.setattr(
            resolver_module,
            "descriptor_index_entries_batch",
            colliding_entries(onions),
        )
        assert_matches_eager(onions, JAN28, FEB8, workers)
        # The first claimant's period, not a later claimant's.
        resolver = DescriptorResolver(onions, JAN28, FEB8, [CLASH_ID], workers=workers)
        assert resolver.validity_of(CLASH_ID) == (JAN28, JAN28 + DAY)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_onion_overlap(self, monkeypatch, workers):
        monkeypatch.setattr(
            resolver_module, "descriptor_index_entries_batch", duplicate_entries
        )
        assert_matches_eager(make_onions(3, seed=3), JAN28, FEB8, workers)


#: Traced peak of a resolver over 2,000 onions for 28 Jan – 8 Feb, asked
#: for a Table II-like request set: 480 IDs the database derives and 1,150
#: it does not.  Indexing every derived ID read 8 MB (Python 3.11); keeping
#: only requested entries, chunk by chunk, brings it to about 2 MB.
RESOLVER_PEAK_LIMIT_MB = 3


def test_resolver_peak_memory_is_bounded():
    onions = make_onions(2_000, seed=9)
    rng = random.Random(9)
    requested = derived_ids(onions)[::100] + [rng.randbytes(20) for _ in range(1_150)]
    tracemalloc.start()
    try:
        resolver = DescriptorResolver(onions, JAN28, FEB8, requested, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert resolver.index_size == 480
    assert peak / 1e6 < RESOLVER_PEAK_LIMIT_MB

