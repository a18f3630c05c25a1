"""Bench: DescriptorResolver index build, serial vs deterministic pool.

The index build is the pipeline's most parallel-friendly hot spot: pure
per-onion SHA-1 batches fanned out through ``repro.parallel.pmap``.  The
bench times the identical build serially and on a process pool, asserts
the two indexes are byte-identical (the whole point of the executor), and
records both wall times plus the speedup factor in the report artifact.
On a single-core host the pool honestly reports ~1x or below — the gain
shows up on multi-core CI runners, the equivalence never changes.
"""

import time

from conftest import save_report

from repro.crypto.descriptor_id import descriptor_ids_for_window_batch
from repro.crypto.onion import onion_address_from_key
from repro.popularity.resolver import DescriptorResolver
from repro.sim.clock import parse_date
from repro.sim.rng import derive_rng

WINDOW_START = parse_date("2013-01-28")
WINDOW_END = parse_date("2013-02-08")
ONION_COUNT = 12_000


def _onions():
    rng = derive_rng(0, "bench", "parallel-resolver")
    return [onion_address_from_key(rng.randbytes(140)) for _ in range(ONION_COUNT)]


def _requested(onions):
    """One day's IDs of every fourth onion, as a harvest requests a few."""
    ids = descriptor_ids_for_window_batch(onions[::4], WINDOW_START, WINDOW_START)
    return [desc for onion_ids in ids for desc in onion_ids]


def test_parallel_resolver_index_build(benchmark, report_dir, workers):
    onions = _onions()
    requested = _requested(onions)
    pool_workers = max(2, workers)

    started = time.perf_counter()
    serial = DescriptorResolver(
        onions, WINDOW_START, WINDOW_END, requested, workers=1
    )
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = benchmark.pedantic(
        lambda: DescriptorResolver(
            onions, WINDOW_START, WINDOW_END, requested, workers=pool_workers
        ),
        rounds=1,
        iterations=1,
    )
    parallel_seconds = time.perf_counter() - started

    # The executor's contract: the pool changes throughput, never output.
    assert parallel._index == serial._index
    assert [parallel.validity_of(d) for d in parallel._index] == [
        serial.validity_of(d) for d in serial._index
    ]
    assert parallel.collision_count == serial.collision_count == 0

    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["parallel_seconds"] = round(parallel_seconds, 3)
    benchmark.extra_info["workers"] = pool_workers
    benchmark.extra_info["speedup"] = round(speedup, 2)

    text = "\n".join(
        [
            "== parallel-resolver index build ==",
            f"onions indexed            {ONION_COUNT}",
            f"index entries             {serial.index_size}",
            f"serial wall time          {serial_seconds:.3f}s (workers=1)",
            f"parallel wall time        {parallel_seconds:.3f}s "
            f"(workers={pool_workers})",
            f"speedup                   {speedup:.2f}x",
            "outputs byte-identical    yes (asserted)",
        ]
    )
    save_report(report_dir, "parallel_resolver", text)
