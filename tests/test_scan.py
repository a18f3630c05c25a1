"""Tests for repro.scan — schedule, scanner, results, TLS analysis."""

import pytest

from repro.crypto.onion import onion_address_from_key
from repro.errors import AttackError
from repro.net.endpoint import ConnectOutcome
from repro.net.transport import TorTransport
from repro.obs import Observer
from repro.population.spec import PORT_SKYNET
from repro.scan.results import FIG1_BINS, ScanResults
from repro.scan.scanner import PortScanner
from repro.scan.schedule import ScanSchedule
from repro.scan.tls import analyze_certificates, collect_certificates
from repro.sim.clock import DAY
from repro.sim.rng import derive_rng


class TestScanSchedule:
    def test_chunks_partition_port_space(self):
        schedule = ScanSchedule(start=0, days=8)
        seen = set()
        for chunk in schedule.all_ports():
            overlap = seen & set((chunk.start, chunk.stop - 1))
            assert not overlap
            seen.update((chunk.start, chunk.stop - 1))
        total = sum(len(chunk) for chunk in schedule.all_ports())
        assert total == 65535

    def test_day_of_port(self):
        schedule = ScanSchedule(start=0, days=4)
        for port in (1, 80, 443, 22222, 65535):
            day = schedule.day_of_port(port)
            assert port in schedule.chunk_for_day(day)

    def test_iteration_times_advance_daily(self):
        schedule = ScanSchedule(start=0, days=3)
        times = [when for _, when, _ in schedule]
        assert times[1] - times[0] == DAY

    def test_end(self):
        assert ScanSchedule(start=100, days=2).end == 100 + 2 * DAY

    def test_invalid_days(self):
        with pytest.raises(AttackError):
            ScanSchedule(start=0, days=0)

    def test_invalid_port_range(self):
        with pytest.raises(AttackError):
            ScanSchedule(start=0, days=1, first_port=100, last_port=50)

    def test_day_index_out_of_range(self):
        with pytest.raises(AttackError):
            ScanSchedule(start=0, days=2).chunk_for_day(2)


class TestScanResults:
    def test_record_and_aggregate(self):
        results = ScanResults()
        onion = onion_address_from_key(b"a")
        results.record(onion, 80, ConnectOutcome.OPEN)
        results.record(onion, PORT_SKYNET, ConnectOutcome.ABNORMAL_ERROR)
        results.record(onion, 99, ConnectOutcome.TIMEOUT)
        assert results.total_open_ports == 2
        assert results.timeouts == 1
        assert results.ports_of(onion) == [80, PORT_SKYNET]

    def test_distribution_bins(self):
        results = ScanResults()
        for i, (port, _label) in enumerate(FIG1_BINS):
            onion = onion_address_from_key(bytes([i]))
            results.record(onion, port, ConnectOutcome.OPEN)
        onion = onion_address_from_key(b"misc")
        results.record(onion, 12345, ConnectOutcome.OPEN)
        dist = results.port_distribution()
        assert dist.counts["80-http"] == 1
        assert dist.counts["other"] == 1
        assert dist.unique_ports == len(FIG1_BINS) + 1
        assert dist.total_open == len(FIG1_BINS) + 1

    def test_rows_have_other_last(self):
        results = ScanResults()
        onion = onion_address_from_key(b"x")
        results.record(onion, 80, ConnectOutcome.OPEN)
        rows = results.port_distribution().as_rows()
        assert rows[-1][0] == "other"

    def test_destinations_excluding(self):
        results = ScanResults()
        onion = onion_address_from_key(b"y")
        results.record(onion, 80, ConnectOutcome.OPEN)
        results.record(onion, PORT_SKYNET, ConnectOutcome.ABNORMAL_ERROR)
        assert results.destinations_excluding(PORT_SKYNET) == [(onion, 80)]


class TestScannerIntegration:
    """Scanner + small world: coverage mechanics end to end."""

    def test_finds_majority_of_ports(self, small_population, small_pipeline):
        scan = small_pipeline.scan()
        spec = small_population.spec
        dist = scan.port_distribution()
        skynet = dist.counts.get("55080-Skynet", 0)
        # ~87% of true bots should be found (down-day losses).
        assert 0.75 * spec.skynet_bot_count <= skynet <= spec.skynet_bot_count

    def test_coverage_is_lossy(self, small_population, small_pipeline):
        scan = small_pipeline.scan()
        assert (
            scan.port_distribution().counts.get("55080-Skynet", 0)
            < small_population.spec.skynet_bot_count
        )

    def test_descriptor_onions_counted(self, small_population, small_pipeline):
        scan = small_pipeline.scan()
        expected_alive = small_population.spec.alive_at_scan_count
        assert abs(len(scan.descriptor_onions) - expected_alive) <= expected_alive * 0.02

    def test_dead_onions_not_reachable(self, small_population, small_pipeline):
        scan = small_pipeline.scan()
        dead = {r.onion for r in small_population.records_in_group("dead")}
        assert not dead & scan.reachable_onions

    def test_abnormal_counted_as_open(self, small_population, small_pipeline):
        scan = small_pipeline.scan()
        outcome_set = {
            outcome
            for (_, port), outcome in scan.open_ports.items()
            if port == PORT_SKYNET
        }
        assert outcome_set == {ConnectOutcome.ABNORMAL_ERROR}


class TestPriorityPortDedupe:
    """Priority ports already inside the day's chunk are probed exactly once.

    Regression: the scanner used to probe ``extra_priority_ports``
    unconditionally, so a priority port that sat inside the day's chunk was
    hit twice — the duplicate burned extra circuit-noise draws (perturbing
    every later probe in the run) and silently overwrote the chunk probe's
    result.  The ``scan_ports_requested_total`` counter is the proof: it
    counts what the scanner *asked for*, so the dedupe shows up as an exact
    per-onion arithmetic identity.
    """

    def _scan(self, population, extra):
        onions = [
            record.onion
            for record in population.records_in_group("skynet-bot")[:30]
        ]
        transport = TorTransport(
            population.registry,
            derive_rng(3, "dedupe"),
            descriptor_available=population.descriptor_available,
        )
        observer = Observer(name="dedupe")
        scanner = PortScanner(transport, observer=observer)
        # One day, ports 1..200: the whole chunk is known exactly.
        schedule = ScanSchedule(
            start=population.scan_start, days=1, first_port=1, last_port=200
        )
        results = scanner.run(onions, schedule, extra_priority_ports=extra)
        requested = observer.registry.counter(
            "scan_ports_requested_total"
        ).value
        return results, requested, len(onions)

    def test_in_chunk_priority_ports_are_not_probed_twice(
        self, small_population
    ):
        # 80 and 130 both sit inside the single day's 1..200 chunk.
        _, requested, onions = self._scan(small_population, extra=[80, 130])
        assert onions > 0
        assert requested == onions * 200  # pre-fix: onions * 202

    def test_out_of_chunk_priority_port_is_still_probed(
        self, small_population
    ):
        results, requested, onions = self._scan(
            small_population, extra=[80, PORT_SKYNET]
        )
        # 80 dedupes away; 55080 is outside 1..200 and costs one probe.
        assert requested == onions * (200 + 1)
        assert PORT_SKYNET in {port for _, port in results.open_ports}

    def test_redundant_priority_ports_change_no_results(
        self, small_population
    ):
        # With every priority port inside the chunk, the probe sequence —
        # and therefore every draw from the shared noise stream — must be
        # identical to a run with no priority ports at all.
        deduped, _, _ = self._scan(small_population, extra=[80, 130])
        plain, _, _ = self._scan(small_population, extra=())
        assert deduped.open_ports == plain.open_ports
        assert deduped.timeouts == plain.timeouts


class TestTlsAnalysis:
    def test_collect_and_classify(self, small_population, small_pipeline):
        scan = small_pipeline.scan()
        https = scan.onions_with_port(443)
        transport = TorTransport(
            small_population.registry,
            derive_rng(0, "tls"),
            descriptor_available=small_population.descriptor_available,
        )
        certs = collect_certificates(
            transport, https, small_population.scan_start + 8 * DAY
        )
        analysis = analyze_certificates(certs)
        spec = small_population.spec
        # TorHost certs dominate the mismatches, as in the paper.
        assert analysis.dominant_cn == small_population.named_onions["torhost-main"]
        assert analysis.self_signed_mismatch >= analysis.dominant_cn_count
        assert (
            0.5 * spec.deanon_cert_count
            <= analysis.deanonymizable_count
            <= spec.deanon_cert_count
        )

    def test_empty_input(self):
        analysis = analyze_certificates({})
        assert analysis.total_certificates == 0
        assert analysis.dominant_cn == ""
