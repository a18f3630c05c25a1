"""Tests for repro.parallel — the deterministic shard-map executor.

The properties that make ``pmap`` safe to sprinkle over the experiments:

- the shard partition covers every item exactly once, balanced, and is a
  pure function of ``(item_count, shard_count)``;
- results merge in item order no matter which shard finishes first;
- every item's RNG stream depends only on ``(seed, path, global index)``,
  so re-sharding or changing the worker count cannot perturb a draw.
"""

import concurrent.futures
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParallelError
from repro.parallel import (
    SHARDS_PER_WORKER,
    WORKERS_ENV,
    item_rng,
    pmap,
    resolve_workers,
    shard_bounds,
)
from repro.parallel import executor as executor_module


def square(value):
    """Module-level so the process pool can pickle it."""
    return value * value


def draw_pair(value, rng):
    """Seeded variant: returns the item with its stream's first draws."""
    return (value, rng.random(), rng.getrandbits(32))


def sleepy_identity(value):
    """Items in the first shard finish *last*; merge order must not care."""
    time.sleep(0.05 if value < 2 else 0.0)
    return value


class TestShardBounds:
    @given(item_count=st.integers(0, 3000), shard_count=st.integers(1, 64))
    def test_partition_covers_every_item_exactly_once(
        self, item_count, shard_count
    ):
        bounds = shard_bounds(item_count, shard_count)
        covered = [i for start, stop in bounds for i in range(start, stop)]
        assert covered == list(range(item_count))

    @given(item_count=st.integers(1, 3000), shard_count=st.integers(1, 64))
    def test_balanced_and_never_empty(self, item_count, shard_count):
        sizes = [stop - start for start, stop in shard_bounds(item_count, shard_count)]
        assert len(sizes) == min(item_count, shard_count)
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1

    def test_pure_function_of_counts(self):
        assert shard_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert shard_bounds(10, 3) == shard_bounds(10, 3)

    def test_zero_items_is_empty(self):
        assert shard_bounds(0, 8) == []

    def test_invalid_counts_rejected(self):
        with pytest.raises(ParallelError):
            shard_bounds(-1, 4)
        with pytest.raises(ParallelError):
            shard_bounds(10, 0)


class TestItemRng:
    @given(
        seed=st.integers(0, 2**32),
        indexes=st.lists(st.integers(0, 10_000), min_size=2, max_size=6, unique=True),
    )
    def test_streams_pairwise_distinct(self, seed, indexes):
        openings = [
            tuple(item_rng(seed, ("prop",), index).random() for _ in range(4))
            for index in indexes
        ]
        assert len(set(openings)) == len(indexes)

    @given(seed=st.integers(0, 2**32), index=st.integers(0, 10_000))
    def test_stream_is_reproducible(self, seed, index):
        first = item_rng(seed, ("a", "b"), index).random()
        again = item_rng(seed, ("a", "b"), index).random()
        assert first == again

    def test_path_separates_streams(self):
        assert item_rng(0, ("scan",), 3).random() != item_rng(0, ("crawl",), 3).random()

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 2**32),
        item_count=st.integers(1, 120),
        shards_a=st.integers(1, 16),
        shards_b=st.integers(1, 16),
    )
    def test_streams_stable_under_resharding(
        self, seed, item_count, shards_a, shards_b
    ):
        items = list(range(item_count))
        out_a = pmap(
            draw_pair, items, seed=seed, seed_path=("re",), workers=1, shards=shards_a
        )
        out_b = pmap(
            draw_pair, items, seed=seed, seed_path=("re",), workers=1, shards=shards_b
        )
        assert out_a == out_b


class TestPmapSerial:
    def test_maps_in_item_order(self):
        assert pmap(square, range(17), workers=1) == [v * v for v in range(17)]

    def test_empty_items(self):
        assert pmap(square, [], workers=8) == []

    def test_closure_runs_in_process_in_item_order(self):
        seen = []

        def record(value):
            seen.append(value)
            return value + 1

        # A closure cannot pickle, so even workers=4 must stay in-process —
        # `seen` filling up in order in *this* process proves it did.
        out = pmap(record, range(10), workers=4)
        assert out == [v + 1 for v in range(10)]
        assert seen == list(range(10))

    def test_nested_pmap_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_IN_WORKER", True)

        class Forbidden:
            def __init__(self, *args, **kwargs):
                raise AssertionError("nested pmap must not fork grandchildren")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", Forbidden
        )
        assert pmap(square, range(9), workers=4) == [v * v for v in range(9)]


class TestPmapPool:
    def test_pool_matches_serial(self):
        serial = pmap(square, range(40), workers=1)
        pooled = pmap(square, range(40), workers=4)
        assert pooled == serial

    def test_pool_matches_serial_with_seeded_streams(self):
        serial = pmap(draw_pair, range(24), seed=7, seed_path=("eq",), workers=1)
        pooled = pmap(draw_pair, range(24), seed=7, seed_path=("eq",), workers=3)
        assert pooled == serial

    def test_merge_order_ignores_completion_order(self):
        # Shard 0 sleeps while the rest return instantly; the merge must
        # still come back in item order, not completion order.
        out = pmap(sleepy_identity, range(8), workers=2, shards=4)
        assert out == list(range(8))


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_blank_env_is_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "  ")
        assert resolve_workers(None) == 1

    def test_non_integer_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ParallelError):
            resolve_workers(None)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ParallelError):
            resolve_workers(bad)

    def test_shards_default_scales_with_workers(self):
        # Contract documented on SHARDS_PER_WORKER: enough shards that one
        # slow shard cannot idle the pool.
        assert SHARDS_PER_WORKER >= 2
