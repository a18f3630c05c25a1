"""Tests for repro.detection.analyzer on a hand-built archive."""

import random

import pytest

from repro.crypto.descriptor_id import descriptor_id
from repro.crypto.keys import KeyPair
from repro.crypto.onion import onion_address_from_key
from repro.crypto.ring import RING_SIZE
from repro.detection.analyzer import (
    ResponsibilityEvent,
    ServerRecord,
    TrackingAnalyzer,
    TrackingReport,
)
from repro.detection.rules import DetectionThresholds
from repro.dirauth.archive import ConsensusArchive
from repro.dirauth.consensus import Consensus, ConsensusEntry
from repro.errors import ConsensusError
from repro.relay.flags import RelayFlags
from repro.sim.clock import DAY

TARGET = onion_address_from_key(b"the-target-service")
OFFSET = 0  # computed below per permanent id


def _offset():
    from repro.crypto.onion import permanent_id_from_onion

    return (permanent_id_from_onion(TARGET)[0] * DAY) // 256


def build_archive(periods=60, honest=80, tracker_periods=(), seed=0):
    """Daily consensuses; on tracker periods, a tracker server appears with
    a fresh ground fingerprint just past the replica-0 descriptor ID."""
    rng = random.Random(seed)
    offset = _offset()
    honest_entries = []
    for i in range(honest):
        keypair = KeyPair.generate(rng)
        honest_entries.append(
            ConsensusEntry(
                fingerprint=keypair.fingerprint,
                nickname=f"honest{i:03d}",
                ip=1000 + i,
                or_port=9001,
                bandwidth=500,
                flags=RelayFlags.RUNNING | RelayFlags.HSDIR,
            )
        )
    archive = ConsensusArchive()
    flags = RelayFlags.RUNNING | RelayFlags.HSDIR
    for period in range(periods):
        period_start = (period + 700_00) * DAY - offset
        entries = list(honest_entries)
        if period in tracker_periods:
            desc = descriptor_id(TARGET, period_start, 0)
            point = int.from_bytes(desc, "big")
            key = KeyPair.forge_near(rng, point, RING_SIZE // honest // 500)
            entries.append(
                ConsensusEntry(
                    fingerprint=key.fingerprint,
                    nickname="sneaky",
                    ip=1,
                    or_port=9001,
                    bandwidth=500,
                    flags=flags,
                )
            )
        entries.sort(key=lambda e: e.fingerprint)
        archive.append(Consensus(valid_after=period_start, entries=tuple(entries)))
    return archive


def window(periods):
    offset = _offset()
    start = 700_00 * DAY - offset
    return start, start + periods * DAY


class TestAnalyzer:
    def test_empty_archive_rejected(self):
        with pytest.raises(ConsensusError):
            TrackingAnalyzer(ConsensusArchive())

    def test_every_period_has_six_slots(self):
        archive = build_archive(periods=20)
        analyzer = TrackingAnalyzer(archive)
        start, end = window(20)
        report = analyzer.analyze(TARGET, start, end)
        total_events = sum(len(r.events) for r in report.servers.values())
        assert total_events == report.periods_analyzed * 6

    def test_honest_world_has_no_likely_trackers(self):
        archive = build_archive(periods=40)
        report = TrackingAnalyzer(archive).analyze(TARGET, *window(40))
        assert report.likely_trackers() == {}

    def test_tracker_convicted(self):
        tracker_periods = {5, 9, 13, 17}
        archive = build_archive(periods=30, tracker_periods=tracker_periods)
        report = TrackingAnalyzer(archive).analyze(TARGET, *window(30))
        likely = report.likely_trackers()
        assert (1, 9001) in likely  # the tracker's server key
        record = report.servers[(1, 9001)]
        assert record.max_ratio >= 100
        assert record.fresh_fingerprint_events >= 2
        assert len(record.fingerprints_used) == len(tracker_periods)

    def test_tracker_flags_include_fingerprint_signals(self):
        archive = build_archive(periods=30, tracker_periods={5, 9, 13, 17})
        report = TrackingAnalyzer(archive).analyze(TARGET, *window(30))
        flags = report.flags_for(report.servers[(1, 9001)])
        assert "ratio" in flags
        assert "fresh-fingerprint" in flags
        assert "fingerprint-churn" in flags

    def test_single_occurrence_not_convicted(self):
        """'statistically it is impossible to distinguish attempts to track
        a hidden service for one time period only from chance' — one event
        must not trip the fingerprint-change conjunction."""
        archive = build_archive(periods=30, tracker_periods={5})
        report = TrackingAnalyzer(archive).analyze(TARGET, *window(30))
        record = report.servers.get((1, 9001))
        assert record is not None
        flags = report.flags_for(record)
        assert "fresh-fingerprint" not in flags

    def test_mean_hsdir_count(self):
        archive = build_archive(periods=10, honest=50)
        report = TrackingAnalyzer(archive).analyze(TARGET, *window(10))
        assert report.mean_hsdir_count == pytest.approx(50, abs=1)

    def test_frequency_threshold_positive(self):
        archive = build_archive(periods=10)
        report = TrackingAnalyzer(archive).analyze(TARGET, *window(10))
        assert report.frequency_threshold > 0

    def test_consecutive_run_measured(self):
        archive = build_archive(periods=20, tracker_periods={4, 5, 6})
        report = TrackingAnalyzer(archive).analyze(TARGET, *window(20))
        assert report.servers[(1, 9001)].max_consecutive_periods >= 3

    def test_full_takeover_detection(self):
        """Six ground fingerprints from ≤3 IPs seize all six slots."""
        rng = random.Random(9)
        offset = _offset()
        honest_entries = []
        for i in range(60):
            keypair = KeyPair.generate(rng)
            honest_entries.append(
                ConsensusEntry(
                    fingerprint=keypair.fingerprint,
                    nickname=f"h{i}",
                    ip=2000 + i,
                    or_port=9001,
                    bandwidth=100,
                    flags=RelayFlags.RUNNING | RelayFlags.HSDIR,
                )
            )
        archive = ConsensusArchive()
        takeover_period = 7
        for period in range(15):
            period_start = (period + 800_00) * DAY - offset
            entries = list(honest_entries)
            if period == takeover_period:
                for replica in range(2):
                    desc = descriptor_id(TARGET, period_start, replica)
                    point = int.from_bytes(desc, "big")
                    gap = RING_SIZE // 60 // 20000
                    for slot in range(3):
                        key = KeyPair.forge_near(rng, (point + slot * 2 * gap) % RING_SIZE, gap)
                        entries.append(
                            ConsensusEntry(
                                fingerprint=key.fingerprint,
                                nickname=f"snoop{replica}{slot}",
                                ip=10 + slot,  # 3 IPs
                                or_port=9001 + replica,
                                bandwidth=100,
                                flags=RelayFlags.RUNNING | RelayFlags.HSDIR,
                            )
                        )
            entries.sort(key=lambda e: e.fingerprint)
            archive.append(Consensus(valid_after=period_start, entries=tuple(entries)))
        start = 800_00 * DAY - offset
        report = TrackingAnalyzer(archive).analyze(TARGET, start, start + 15 * DAY)
        takeovers = report.full_takeovers()
        assert len(takeovers) == 1
        _, servers = takeovers[0]
        assert {ip for ip, _ in servers} == {10, 11, 12}

    def test_custom_thresholds_respected(self):
        archive = build_archive(periods=30, tracker_periods={5, 9})
        lax = DetectionThresholds(ratio_suspicious=10**7, ratio_extreme=10**8)
        report = TrackingAnalyzer(archive, lax).analyze(TARGET, *window(30))
        assert report.likely_trackers() == {}


def event(period, ratio=1.0, fresh=False, replica=0, fingerprint=b"\x01" * 20):
    return ResponsibilityEvent(
        period_index=period,
        period_start=period * DAY,
        fingerprint=fingerprint,
        nickname="n",
        replica=replica,
        ratio=ratio,
        fresh_fingerprint=fresh,
    )


def report_over(periods, records):
    return TrackingReport(
        onion="a" * 16 + ".onion",
        window=(0, periods * DAY),
        periods_analyzed=periods,
        mean_hsdir_count=1200.0,
        thresholds=DetectionThresholds(),
        servers={record.server: record for record in records},
    )


class TestServerRecord:
    def test_both_replicas_in_one_period_count_once(self):
        record = ServerRecord(server=(1, 9001), events=[event(4, replica=0), event(4, replica=1)])
        assert record.periods_responsible == 1

    def test_longest_run_of_consecutive_periods(self):
        record = ServerRecord(server=(1, 9001), events=[event(p) for p in (1, 2, 3, 5, 6, 9)])
        assert record.periods_responsible == 6
        assert record.max_consecutive_periods == 3

    def test_empty_record_scores_zero(self):
        record = ServerRecord(server=(1, 9001))
        assert (
            record.periods_responsible,
            record.max_ratio,
            record.fresh_fingerprint_events,
            record.max_consecutive_periods,
        ) == (0, 0.0, 0, 0)

    def test_ratio_and_fresh_events_summarised(self):
        record = ServerRecord(
            server=(1, 9001),
            events=[event(1, ratio=3.0), event(5, ratio=250.0, fresh=True), event(8, fresh=True)],
        )
        assert record.max_ratio == 250.0
        assert record.fresh_fingerprint_events == 2


class TestReportVerdicts:
    def test_extreme_ratio_alone_convicts(self):
        record = ServerRecord(server=(1, 9001), events=[event(3, ratio=20_000.0)])
        report = report_over(100, [record])
        assert report.flags_for(record) == ["ratio", "ratio-extreme"]
        assert report.likely_trackers() == {(1, 9001): ["ratio", "ratio-extreme"]}

    def test_suspicious_ratio_needs_a_fingerprint_signal(self):
        lone = ServerRecord(server=(1, 9001), events=[event(3, ratio=500.0)])
        rotating = ServerRecord(
            server=(2, 9001),
            events=[event(3, ratio=500.0, fresh=True), event(40, fresh=True)],
        )
        report = report_over(100, [lone, rotating])
        assert list(report.likely_trackers()) == [(2, 9001)]
        assert report.servers_with_flag("fresh-fingerprint") == [(2, 9001)]

    def test_many_fingerprints_trip_the_churn_rule(self):
        record = ServerRecord(
            server=(1, 9001), fingerprints_used={bytes([i]) * 20 for i in range(4)}
        )
        assert report_over(10, [record]).flags_for(record) == ["fingerprint-churn"]
