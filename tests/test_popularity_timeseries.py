"""Tests for repro.popularity.timeseries — traffic-shape forensics."""

import pytest

from repro.errors import ReproError
from repro.hsdir.directory import HSDirServer
from repro.popularity.timeseries import (
    RequestTimeSeries,
    classify_services_by_shape,
    series_from_log,
)
from repro.sim.clock import DAY, HOUR
from repro.sim.rng import derive_rng


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

    def test_sparkline(self):
        series = RequestTimeSeries(start=0, bucket_seconds=HOUR, counts=[0, 4, 8])
        line = series.format_sparkline()
        assert len(line) == 3
        assert line[-1] == "█"


class TestSeriesFromLog:
    def make_server_with_requests(self, times, desc_id=b"\x01" * 20):
        server = HSDirServer(relay_id=1)
        for t in times:
            server.fetch(desc_id, now=t)
        return server

    def test_bucketing(self):
        server = self.make_server_with_requests([10, 20, HOUR + 5, 3 * HOUR - 1])
        series = series_from_log(server, 0, 4 * HOUR)
        assert series.counts == [2, 1, 1, 0]

    def test_window_filtering(self):
        server = self.make_server_with_requests([10, 5 * HOUR])
        series = series_from_log(server, 0, 2 * HOUR)
        assert series.total == 1

    def test_descriptor_filter(self):
        server = HSDirServer(relay_id=1)
        server.fetch(b"\x01" * 20, now=10)
        server.fetch(b"\x02" * 20, now=20)
        series = series_from_log(
            server, 0, HOUR, descriptor_ids=[b"\x01" * 20]
        )
        assert series.total == 1

    def test_empty_window_rejected(self):
        with pytest.raises(ReproError):
            series_from_log(HSDirServer(relay_id=1), 10, 10)

    def test_zero_bucket_width_rejected(self):
        with pytest.raises(ReproError):
            series_from_log(HSDirServer(relay_id=1), 0, HOUR, bucket_seconds=0)


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