"""Tests for repro.detection.analyzer on hand-built consensus histories."""

import gc
import random
import weakref

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
from repro.dirauth.consensus import Consensus, ConsensusEntry
from repro.errors import ConsensusError
from repro.relay.flags import RelayFlags
from repro.sim.clock import DAY

TARGET = onion_address_from_key(b"the-target-service")
OFFSET = 0  # computed below per permanent id


def _offset():
    from repro.crypto.onion import permanent_id_from_onion

    return (permanent_id_from_onion(TARGET)[0] * DAY) // 256


def build_history(periods=60, honest=80, tracker_periods=(), seed=0):
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
    history = []
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
        history.append(Consensus(valid_after=period_start, entries=tuple(entries)))
    return history


def window(periods):
    offset = _offset()
    start = 700_00 * DAY - offset
    return start, start + periods * DAY


def analyze(history, start, end, thresholds=None):
    """Observe ``history`` in order, then report on ``[start, end]``."""
    analyzer = TrackingAnalyzer([(TARGET, start, end)], thresholds)
    for consensus in history:
        analyzer.observe(consensus)
    return analyzer.analyze(TARGET, start, end)


class TestAnalyzer:
    def test_empty_history_rejected(self):
        with pytest.raises(ConsensusError):
            analyze([], *window(10))

    def test_every_period_has_six_slots(self):
        start, end = window(20)
        report = analyze(build_history(periods=20), start, end)
        total_events = sum(len(r.events) for r in report.servers.values())
        assert total_events == report.periods_analyzed * 6

    def test_honest_world_has_no_likely_trackers(self):
        report = analyze(build_history(periods=40), *window(40))
        assert report.likely_trackers() == {}

    def test_tracker_convicted(self):
        tracker_periods = {5, 9, 13, 17}
        history = build_history(periods=30, tracker_periods=tracker_periods)
        report = analyze(history, *window(30))
        likely = report.likely_trackers()
        assert (1, 9001) in likely  # the tracker's server key
        record = report.servers[(1, 9001)]
        assert record.max_ratio >= 100
        assert record.fresh_fingerprint_events >= 2
        assert len(record.fingerprints_used) == len(tracker_periods)

    def test_tracker_flags_include_fingerprint_signals(self):
        history = build_history(periods=30, tracker_periods={5, 9, 13, 17})
        report = analyze(history, *window(30))
        flags = report.flags_for(report.servers[(1, 9001)])
        assert "ratio" in flags
        assert "fresh-fingerprint" in flags
        assert "fingerprint-churn" in flags

    def test_single_occurrence_not_convicted(self):
        """'statistically it is impossible to distinguish attempts to track
        a hidden service for one time period only from chance' — one event
        must not trip the fingerprint-change conjunction."""
        history = build_history(periods=30, tracker_periods={5})
        report = analyze(history, *window(30))
        record = report.servers.get((1, 9001))
        assert record is not None
        flags = report.flags_for(record)
        assert "fresh-fingerprint" not in flags

    def test_mean_hsdir_count(self):
        report = analyze(build_history(periods=10, honest=50), *window(10))
        assert report.mean_hsdir_count == pytest.approx(50, abs=1)

    def test_frequency_threshold_positive(self):
        report = analyze(build_history(periods=10), *window(10))
        assert report.frequency_threshold > 0

    def test_consecutive_run_measured(self):
        history = build_history(periods=20, tracker_periods={4, 5, 6})
        report = analyze(history, *window(20))
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
        history = []
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
            history.append(Consensus(valid_after=period_start, entries=tuple(entries)))
        start = 800_00 * DAY - offset
        report = analyze(history, start, start + 15 * DAY)
        takeovers = report.full_takeovers()
        assert len(takeovers) == 1
        _, servers = takeovers[0]
        assert {ip for ip, _ in servers} == {10, 11, 12}

    def test_custom_thresholds_respected(self):
        history = build_history(periods=30, tracker_periods={5, 9})
        lax = DetectionThresholds(ratio_suspicious=10**7, ratio_extreme=10**8)
        report = analyze(history, *window(30), thresholds=lax)
        assert report.likely_trackers() == {}


#: Twenty HSDir keys every :func:`tagged` consensus lists.
STREAM_KEYS = [KeyPair.generate(random.Random(seed)) for seed in range(20)]


def tagged(valid_after, tag, keys=STREAM_KEYS):
    """A consensus over ``keys`` whose servers' IPs name it: ``tag * 1000 + i``."""
    entries = [
        ConsensusEntry(
            fingerprint=key.fingerprint,
            nickname=f"c{tag}",
            ip=tag * 1000 + index,
            or_port=9001,
            bandwidth=100,
            flags=RelayFlags.RUNNING | RelayFlags.HSDIR,
        )
        for index, key in enumerate(keys)
    ]
    entries.sort(key=lambda e: e.fingerprint)
    return Consensus(valid_after=valid_after, entries=tuple(entries))


def tags_by_period(report):
    """period index -> tags of the consensuses its events came from."""
    used = {}
    for record in report.servers.values():
        for ev in record.events:
            used.setdefault(ev.period_index, set()).add(record.server[0] // 1000)
    return used


class TestStreaming:
    """Each period is read from the latest consensus valid at its start."""

    START, END = window(9)  # periods 0..9

    def stream(self, *consensuses):
        return analyze(consensuses, self.START, self.END)

    def test_consensus_between_period_starts(self):
        report = self.stream(
            tagged(self.START, 1), tagged(self.START + 2 * DAY + DAY // 2, 2)
        )
        assert tags_by_period(report) == {
            period: {1 if period <= 2 else 2} for period in range(10)
        }

    def test_consensus_at_a_period_start_serves_that_period(self):
        report = self.stream(tagged(self.START, 1), tagged(self.START + 4 * DAY, 2))
        assert tags_by_period(report)[3] == {1}
        assert tags_by_period(report)[4] == {2}

    def test_gap_of_several_periods_reuses_the_last_consensus(self):
        report = self.stream(tagged(self.START, 1), tagged(self.START + 6 * DAY, 2))
        used = tags_by_period(report)
        assert [used[period] for period in range(6)] == [{1}] * 6
        assert report.periods_analyzed == 10

    def test_periods_before_the_first_consensus_are_skipped(self):
        report = self.stream(tagged(self.START + 3 * DAY - 1, 1))
        assert report.periods_analyzed == 7
        assert sorted(tags_by_period(report)) == list(range(3, 10))

    def test_periods_past_the_last_consensus_use_the_last(self):
        report = self.stream(tagged(self.START - DAY, 1), tagged(self.START + DAY, 2))
        used = tags_by_period(report)
        assert used[0] == {1}
        assert all(used[period] == {2} for period in range(1, 10))

    def test_consensus_after_the_window_is_harmless(self):
        report = self.stream(tagged(self.START, 1), tagged(self.END + 5 * DAY, 2))
        assert all(tags == {1} for tags in tags_by_period(report).values())

    def test_equal_or_older_valid_after_rejected(self):
        analyzer = TrackingAnalyzer([(TARGET, self.START, self.END)])
        analyzer.observe(tagged(self.START + DAY, 1))
        with pytest.raises(ConsensusError):
            analyzer.observe(tagged(self.START + DAY, 2))
        with pytest.raises(ConsensusError):
            analyzer.observe(tagged(self.START, 3))

    def test_observe_after_analyze_rejected(self):
        analyzer = TrackingAnalyzer([(TARGET, self.START, self.END)])
        analyzer.observe(tagged(self.START, 1))
        analyzer.analyze(TARGET, self.START, self.END)
        with pytest.raises(ConsensusError):
            analyzer.observe(tagged(self.START + DAY, 2))

    def test_unknown_window_rejected(self):
        analyzer = TrackingAnalyzer([(TARGET, self.START, self.END)])
        analyzer.observe(tagged(self.START, 1))
        with pytest.raises(ConsensusError):
            analyzer.analyze(TARGET, self.START, self.END + DAY)

    def test_windows_are_reported_independently(self):
        first = (TARGET, self.START, self.START + 4 * DAY)
        second = (TARGET, self.START + 5 * DAY, self.END)
        analyzer = TrackingAnalyzer([first, second])
        analyzer.observe(tagged(self.START, 1))
        analyzer.observe(tagged(self.START + 5 * DAY, 2))
        early, late = analyzer.analyze(*first), analyzer.analyze(*second)
        assert (early.periods_analyzed, late.periods_analyzed) == (5, 5)
        assert set().union(*tags_by_period(early).values()) == {1}
        assert set().union(*tags_by_period(late).values()) == {2}
        assert analyzer.analyze(*first) is early

    def test_first_sighting_decides_freshness(self):
        """A fingerprint's first-seen time is its first consensus, and a
        later reappearance does not reset it."""
        old, new = STREAM_KEYS[:10], STREAM_KEYS[10:]
        report = self.stream(
            tagged(self.START - 5 * DAY, 1, keys=old),
            tagged(self.START, 2, keys=old + new),
            tagged(self.START + 4 * DAY, 3, keys=old),
            tagged(self.START + 7 * DAY, 4, keys=old + new),
        )
        new_fingerprints = {key.fingerprint for key in new}
        seen = {
            (ev.period_index, ev.fingerprint in new_fingerprints, ev.fresh_fingerprint)
            for record in report.servers.values()
            for ev in record.events
        }
        # New keys are fresh for two periods after they first appear at
        # START, and not again when they come back at START + 7 days; old
        # keys never are.
        assert {fresh for _, _, fresh in seen} == {True, False}
        assert all(fresh == (is_new and period <= 2) for period, is_new, fresh in seen)
        assert any(is_new and period >= 7 for period, is_new, _ in seen)

    def test_a_consensus_is_released_two_observations_later(self):
        analyzer = TrackingAnalyzer([(TARGET, self.START, self.END)])
        refs = []
        for k in range(6):
            consensus = tagged(self.START + k * DAY, k)
            refs.append(weakref.ref(consensus))
            analyzer.observe(consensus)
            del consensus
            gc.collect()
            assert [ref() is None for ref in refs] == [True] * (k) + [False]
        analyzer.analyze(TARGET, self.START, self.END)


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
