"""Tests for repro.popularity.timeseries — traffic-shape forensics."""

from typing import NamedTuple

import pytest

from repro.errors import ReproError
from repro.hsdir.directory import HSDirServer
from repro.popularity.timeseries import (
    RequestTimeSeries,
    classify_services_by_shape,
    series_by_owner,
)
from repro.sim.clock import DAY, HOUR
from repro.sim.rng import derive_rng


class FetchRecord(NamedTuple):
    """One logged fetch, as :class:`RecordingHSDirServer` keeps it."""

    time: int
    descriptor_id: bytes
    found: bool


class RecordingHSDirServer(HSDirServer):
    """Reference: a directory that also keeps a record per logged fetch.

    The per-request log the hourly tallies replaced: every fetch the
    tally counts is appended to :attr:`records` as well, so tally-built
    series can be checked against :func:`series_from_log` over the same
    fetch stream.
    """

    def __init__(self, relay_id, keep_log=True):
        super().__init__(relay_id, keep_log)
        self.records = []

    def fetch(self, descriptor_id, now, log=True):
        descriptor = super().fetch(descriptor_id, now, log)
        if log and self.keep_log:
            self.records.append(
                FetchRecord(int(now), descriptor_id, descriptor is not None)
            )
        return descriptor


def series_from_log(
    records, start, end, bucket_seconds=HOUR, descriptor_ids=None
):
    """Reference: bucket per-fetch records into ``[start, end)``.

    ``descriptor_ids`` restricts the series to specific IDs (one service).
    Works at any window and bucket width, whole hours or not.
    """
    if end <= start:
        raise ReproError(f"empty window: [{start}, {end})")
    if bucket_seconds <= 0:
        raise ReproError(f"bucket width must be positive: {bucket_seconds}")
    buckets = [0] * max(1, -(-(end - start) // bucket_seconds))
    wanted = set(descriptor_ids) if descriptor_ids is not None else None
    for record in records:
        if not start <= record.time < end:
            continue
        if wanted is not None and record.descriptor_id not in wanted:
            continue
        buckets[(record.time - start) // bucket_seconds] += 1
    return RequestTimeSeries(start=start, bucket_seconds=bucket_seconds, counts=buckets)


def constant_series(rate=50, buckets=24, seed=0):
    rng = derive_rng(seed, "const")
    counts = [sum(1 for _ in range(rate * 2) if rng.random() < 0.5) for _ in range(buckets)]
    return RequestTimeSeries(start=0, bucket_seconds=HOUR, counts=counts)


def diurnal_series(base=50, buckets=24, seed=0):
    import math

    rng = derive_rng(seed, "diurnal")
    counts = []
    for hour in range(buckets):
        mean = base * (1 + 0.8 * math.cos(2 * math.pi * (hour - 20) / 24))
        counts.append(max(0, round(mean + rng.gauss(0, math.sqrt(max(1, mean))))))
    return RequestTimeSeries(start=0, bucket_seconds=HOUR, counts=counts)


class TestRequestTimeSeries:
    def test_totals_and_mean(self):
        series = RequestTimeSeries(start=0, bucket_seconds=HOUR, counts=[1, 2, 3])
        assert series.total == 6
        assert series.mean_rate == 2.0

    def test_bad_bucket_width(self):
        with pytest.raises(ReproError):
            RequestTimeSeries(start=0, bucket_seconds=0, counts=[])

    def test_constant_traffic_is_machine_like(self):
        assert constant_series().is_machine_like()

    def test_diurnal_traffic_is_not(self):
        assert not diurnal_series().is_machine_like()

    def test_cv_ordering(self):
        assert (
            constant_series().coefficient_of_variation()
            < diurnal_series().coefficient_of_variation()
        )

    def test_empty_series_cv(self):
        series = RequestTimeSeries(start=0, bucket_seconds=HOUR, counts=[0, 0])
        assert series.coefficient_of_variation() == 0.0
        assert series.poisson_floor() == 0.0

    def test_zero_traffic_is_not_machine_like(self):
        # CV and the Poisson floor are both 0.0 for a silent series, which
        # used to satisfy ``cv <= tolerance * floor`` vacuously.  No traffic
        # carries no shape evidence: neither machine- nor human-like.
        silent = RequestTimeSeries(start=0, bucket_seconds=HOUR, counts=[0, 0, 0])
        empty = RequestTimeSeries(start=0, bucket_seconds=HOUR, counts=[])
        assert not silent.is_machine_like()
        assert not empty.is_machine_like()

    def test_zero_traffic_never_classified_machine(self):
        silent = RequestTimeSeries(start=0, bucket_seconds=HOUR, counts=[0] * 24)
        # Default threshold: a silent service is low-volume …
        assert classify_services_by_shape({"ghost": silent}) == {
            "ghost": "low-volume"
        }
        # … and even with the volume gate disabled it must not be labelled
        # a timer-driven (machine) source.
        labels = classify_services_by_shape({"ghost": silent}, min_requests=0)
        assert labels["ghost"] != "machine"


class TestSeriesFromLog:
    def make_server_with_requests(self, times, desc_id=b"\x01" * 20):
        server = RecordingHSDirServer(relay_id=1)
        for t in times:
            server.fetch(desc_id, now=t)
        return server

    def test_bucketing(self):
        server = self.make_server_with_requests([10, 20, HOUR + 5, 3 * HOUR - 1])
        series = series_from_log(server.records, 0, 4 * HOUR)
        assert series.counts == [2, 1, 1, 0]

    def test_window_filtering(self):
        server = self.make_server_with_requests([10, 5 * HOUR])
        series = series_from_log(server.records, 0, 2 * HOUR)
        assert series.total == 1

    def test_descriptor_filter(self):
        server = RecordingHSDirServer(relay_id=1)
        server.fetch(b"\x01" * 20, now=10)
        server.fetch(b"\x02" * 20, now=20)
        series = series_from_log(
            server.records, 0, HOUR, descriptor_ids=[b"\x01" * 20]
        )
        assert series.total == 1

    def test_empty_window_rejected(self):
        with pytest.raises(ReproError):
            series_from_log([], 10, 10)

    def test_zero_bucket_width_rejected(self):
        with pytest.raises(ReproError):
            series_from_log([], 0, HOUR, bucket_seconds=0)


class TestSeriesByOwner:
    def test_sums_hour_tallies_into_buckets(self):
        server = RecordingHSDirServer(relay_id=1)
        for t in (10, 20, HOUR + 5, 3 * HOUR - 1, 5 * HOUR):
            server.fetch(b"\x01" * 20, now=t)
        server.fetch(b"\x01" * 20, now=30, log=False)
        server.fetch(b"\x02" * 20, now=40)
        assert server.hourly_requests() == {
            0: {b"\x01" * 20: 2, b"\x02" * 20: 1},
            HOUR: {b"\x01" * 20: 1},
            2 * HOUR: {b"\x01" * 20: 1},
            5 * HOUR: {b"\x01" * 20: 1},
        }
        owner_of = {b"\x01" * 20: "a", b"\x03" * 20: "c"}
        got = series_by_owner(
            [server.hourly_requests()], owner_of, 0, 4 * HOUR, 2 * HOUR
        )
        assert got["a"].counts == [3, 1]
        assert got["c"].counts == [0, 0]
        assert got == {
            owner: series_from_log(
                server.records, 0, 4 * HOUR, 2 * HOUR, descriptor_ids=[desc]
            )
            for desc, owner in owner_of.items()
        }

    @pytest.mark.parametrize(
        "start, end, bucket",
        [
            (HOUR + 1, 3 * HOUR, HOUR),
            (HOUR, 3 * HOUR - 1, HOUR),
            (0, 2 * HOUR, HOUR // 2),
            (0, 3 * HOUR, 90 * 60),
        ],
        ids=["start", "end", "sub-hour-bucket", "ragged-bucket"],
    )
    def test_window_not_on_whole_hours_rejected(self, start, end, bucket):
        # An hour's tally cannot be split across buckets or window edges.
        server = HSDirServer(relay_id=1)
        server.fetch(b"\x01" * 20, now=HOUR)
        with pytest.raises(ReproError, match="not on whole hours"):
            series_by_owner(
                [server.hourly_requests()], {b"\x01" * 20: "a"}, start, end, bucket
            )


class TestClassify:
    def test_classification_labels(self):
        labels = classify_services_by_shape(
            {
                "botnet": constant_series(),
                "market": diurnal_series(),
                "tiny": RequestTimeSeries(start=0, bucket_seconds=HOUR, counts=[1, 0]),
            }
        )
        assert labels == {
            "botnet": "machine",
            "market": "human",
            "tiny": "low-volume",
        }


class TestDiurnalWorkloadIntegration:
    def test_diurnal_onions_follow_the_curve(self, network):
        """End to end: a diurnal service's slice allocation peaks in the
        evening; a flat (botnet-like) one does not."""
        import random

        from repro.client.workload import PopularityWorkload, WorkloadSpec
        from repro.crypto.keys import KeyPair
        from repro.hs.service import HiddenService

        rng = random.Random(5)
        human = HiddenService(keypair=KeyPair.generate(rng), online_from=0)
        botnet = HiddenService(keypair=KeyPair.generate(rng), online_from=0)
        network.publish_service(human)
        network.publish_service(botnet)
        start = (network.clock.now // DAY) * DAY  # midnight-aligned
        spec = WorkloadSpec(
            window_start=start,
            window_end=start + DAY,
            named_rates={human.onion: 4800, botnet.onion: 4800},
            diurnal_onions={human.onion},
            client_count=10,
        )
        workload = PopularityWorkload(spec, derive_rng(6, "w"))
        slice_starts = [start + hour * HOUR for hour in range(24)]
        planned = workload.plan_slices(24, slice_starts=slice_starts)
        human_buckets = planned.buckets[(human.onion, "named")]
        botnet_buckets = planned.buckets[(botnet.onion, "named")]
        human_series = RequestTimeSeries(
            start=start, bucket_seconds=HOUR, counts=human_buckets
        )
        botnet_series = RequestTimeSeries(
            start=start, bucket_seconds=HOUR, counts=botnet_buckets
        )
        assert not human_series.is_machine_like()
        assert botnet_series.is_machine_like(tolerance=2.5)
        # Evening (20:00) beats early morning (08:00) for the human service.
        assert human_buckets[20] > human_buckets[8]