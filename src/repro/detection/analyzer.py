"""The consensus-history analyzer.

Walks a :class:`~repro.dirauth.archive.ConsensusArchive` period by period
for one target onion address, reconstructs each period's responsible HSDir
set, and applies the five Section VII rules per *server* — a server being
an (IP, ORPort) pair, because that is what stays fixed when a tracker
rotates identity keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.crypto.descriptor_id import REPLICAS, descriptor_index_entries
from repro.crypto.keys import Fingerprint
from repro.crypto.onion import OnionAddress, permanent_id_from_onion
from repro.detection.rules import DetectionThresholds, binomial_threshold
from repro.dirauth.archive import ConsensusArchive
from repro.errors import ConsensusError
from repro.parallel.executor import pmap
from repro.sim.clock import DAY, Timestamp

ServerKey = Tuple[int, int]  # (ip, or_port)


@dataclass
class ResponsibilityEvent:
    """One (server, period) responsibility observation."""

    period_index: int
    period_start: Timestamp
    fingerprint: Fingerprint
    nickname: str
    replica: int
    ratio: float  # avg_dist / distance positioning statistic
    fresh_fingerprint: bool  # fingerprint appeared only just before


@dataclass
class ServerRecord:
    """Everything observed about one (IP, ORPort) server."""

    server: ServerKey
    nicknames: Set[str] = field(default_factory=set)
    fingerprints_used: Set[Fingerprint] = field(default_factory=set)
    events: List[ResponsibilityEvent] = field(default_factory=list)

    @property
    def periods_responsible(self) -> int:
        """Distinct periods in which this server was responsible."""
        return len({event.period_index for event in self.events})

    @property
    def max_ratio(self) -> float:
        """Largest positioning ratio observed."""
        return max((event.ratio for event in self.events), default=0.0)

    @property
    def fresh_fingerprint_events(self) -> int:
        """Times the server was responsible on a just-appeared fingerprint."""
        return sum(1 for event in self.events if event.fresh_fingerprint)

    @property
    def max_consecutive_periods(self) -> int:
        """Longest run of consecutive responsible periods."""
        periods = sorted({event.period_index for event in self.events})
        best = run = 0
        previous: Optional[int] = None
        for period in periods:
            run = run + 1 if previous is not None and period == previous + 1 else 1
            best = max(best, run)
            previous = period
        return best


@dataclass
class TrackingReport:
    """Analyzer output for one onion over one window."""

    onion: OnionAddress
    window: Tuple[Timestamp, Timestamp]
    periods_analyzed: int
    mean_hsdir_count: float
    thresholds: DetectionThresholds
    servers: Dict[ServerKey, ServerRecord] = field(default_factory=dict)

    @property
    def frequency_threshold(self) -> float:
        """μ + kσ for the responsible-count rule over this window."""
        probability = (
            REPLICAS * 3 / self.mean_hsdir_count if self.mean_hsdir_count else 0.0
        )
        return binomial_threshold(
            self.periods_analyzed, min(1.0, probability), self.thresholds.frequency_sigmas
        )

    def flags_for(self, record: ServerRecord) -> List[str]:
        """Which rules a server trips."""
        t = self.thresholds
        flags: List[str] = []
        if record.periods_responsible > self.frequency_threshold:
            flags.append("frequency")
        if record.fresh_fingerprint_events >= t.fresh_fingerprint_min_events:
            flags.append("fresh-fingerprint")
        if record.max_ratio >= t.ratio_suspicious:
            flags.append("ratio")
        if record.max_ratio >= t.ratio_extreme:
            flags.append("ratio-extreme")
        if len(record.fingerprints_used) > t.churn_max_fingerprints:
            flags.append("fingerprint-churn")
        if record.max_consecutive_periods >= t.consecutive_min_periods:
            flags.append("consecutive")
        return flags

    def servers_with_flag(self, flag: str) -> List[ServerKey]:
        """Servers tripping one specific rule."""
        return [
            server
            for server, record in self.servers.items()
            if flag in self.flags_for(record)
        ]

    def likely_trackers(self) -> Dict[ServerKey, List[str]]:
        """Servers the paper's *most reliable* criterion convicts.

        Section VII's conclusion: "looking for changes in fingerprints, in
        combination with the distance between the descriptor ID and the
        fingerprint seems to be the most reliable way to detect tracking."
        A server is a likely tracker when it repeatedly became responsible
        on just-appeared fingerprints *and* its positioning ratio is
        suspicious — or when its positioning is so extreme (≥ the 10k tier)
        that chance is implausible outright.
        """
        result: Dict[ServerKey, List[str]] = {}
        for server, record in self.servers.items():
            flags = self.flags_for(record)
            fingerprint_signal = (
                "fresh-fingerprint" in flags or "fingerprint-churn" in flags
            )
            if ("ratio" in flags and fingerprint_signal) or "ratio-extreme" in flags:
                result[server] = flags
        return result

    def full_takeovers(
        self, max_entities: int = 3, min_slots: int = REPLICAS * 3
    ) -> List[Tuple[Timestamp, List[ServerKey]]]:
        """Periods where a handful of IPs held (almost) every responsible slot.

        The 31 August 2013 signature: "6 other Tor relays ... from 3
        different IP addresses become the responsible HSDir's" — all six
        slots, one period, tiny distances.  Returns (period_start, servers)
        for each period where at most ``max_entities`` distinct IPs supplied
        at least ``min_slots`` suspiciously-positioned slots.
        """
        by_period: Dict[Timestamp, List[Tuple[ServerKey, float]]] = {}
        for server, record in self.servers.items():
            for event in record.events:
                by_period.setdefault(event.period_start, []).append(
                    (server, event.ratio)
                )
        takeovers: List[Tuple[Timestamp, List[ServerKey]]] = []
        for period_start, slots in sorted(by_period.items()):
            hot = [
                (server, ratio)
                for server, ratio in slots
                if ratio >= self.thresholds.ratio_suspicious
            ]
            if len(hot) < min_slots:
                continue
            ips = {server[0] for server, _ in hot}
            if len(ips) <= max_entities:
                takeovers.append(
                    (period_start, sorted({server for server, _ in hot}))
                )
        return takeovers


class TrackingAnalyzer:
    """Applies the rules to an archive for one target onion."""

    def __init__(
        self,
        archive: ConsensusArchive,
        thresholds: Optional[DetectionThresholds] = None,
    ) -> None:
        if len(archive) == 0:
            raise ConsensusError("cannot analyze an empty archive")
        self.archive = archive
        self.thresholds = thresholds if thresholds is not None else DetectionThresholds()

    def analyze(
        self,
        onion: OnionAddress,
        start: Timestamp,
        end: Timestamp,
        workers: Optional[int] = None,
    ) -> TrackingReport:
        """Analyze the window ``[start, end]`` (the paper split 3 years
        into yearly windows because the ring more than doubled).

        Per-period ring reconstruction is a pure read of the archive, so
        the sweep fans out over periods through
        :func:`repro.parallel.pmap`; the report merge walks periods in
        chronological order, so server records and their event lists are
        identical at every ``workers`` value.  (The closure keeps the
        multi-gigabyte-at-scale archive in-process.)
        """
        permanent_id = permanent_id_from_onion(onion)
        offset = (permanent_id[0] * DAY) // 256
        first_period = (int(start) + offset) // DAY
        last_period = (int(end) + offset) // DAY
        # Every (period, replica) descriptor ID the window needs, derived in
        # one indexed pass (entry ``(period - first_period) * REPLICAS +
        # replica`` — the same order the scalar loop derived them in) instead
        # of one SHA-1 pair per period inside the sweep.
        id_entries = descriptor_index_entries(onion, start, end)

        report = TrackingReport(
            onion=onion,
            window=(int(start), int(end)),
            periods_analyzed=0,
            mean_hsdir_count=0.0,
            thresholds=self.thresholds,
        )
        hsdir_counts: List[int] = []

        def scan_period(period):
            period_start = period * DAY - offset
            consensus = self.archive.at(period_start)
            if consensus is None:
                return None
            ring = consensus.hsdir_ring
            if len(ring) == 0:
                return None
            events: List[Tuple] = []
            base = (period - first_period) * REPLICAS
            for replica in range(REPLICAS):
                desc_id = id_entries[base + replica][0]
                for fingerprint in ring.responsible_for(desc_id):
                    entry = consensus.entry_for(fingerprint)
                    if entry is None:
                        continue
                    first_seen = self.archive.first_seen(fingerprint)
                    fresh = (
                        first_seen is not None
                        and period_start - first_seen
                        <= self.thresholds.fresh_fingerprint_periods * DAY
                    )
                    events.append(
                        (
                            entry.address,
                            entry.nickname,
                            fingerprint,
                            replica,
                            ring.positioning_ratio(desc_id, fingerprint),
                            fresh,
                        )
                    )
            return len(ring), events

        periods = list(range(first_period, last_period + 1))
        for period, observed in zip(
            periods, pmap(scan_period, periods, workers=workers)
        ):
            if observed is None:
                continue
            ring_size, events = observed
            report.periods_analyzed += 1
            hsdir_counts.append(ring_size)
            period_index = period - first_period
            period_start = period * DAY - offset
            for address, nickname, fingerprint, replica, ratio, fresh in events:
                record = report.servers.setdefault(
                    address, ServerRecord(server=address)
                )
                record.nicknames.add(nickname)
                record.fingerprints_used.add(fingerprint)
                record.events.append(
                    ResponsibilityEvent(
                        period_index=period_index,
                        period_start=period_start,
                        fingerprint=fingerprint,
                        nickname=nickname,
                        replica=replica,
                        ratio=ratio,
                        fresh_fingerprint=fresh,
                    )
                )
        if hsdir_counts:
            report.mean_hsdir_count = sum(hsdir_counts) / len(hsdir_counts)
        return report
