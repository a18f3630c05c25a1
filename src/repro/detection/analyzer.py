"""The consensus-history analyzer.

Reads a consensus history one consensus at a time for target onion
addresses, reconstructs each period's responsible HSDir set, and applies
the five Section VII rules per *server* — a server being an (IP, ORPort)
pair, because that is what stays fixed when a tracker rotates identity
keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.crypto.descriptor_id import REPLICAS, descriptor_index_entries
from repro.crypto.keys import Fingerprint
from repro.crypto.onion import OnionAddress, permanent_id_from_onion
from repro.detection.rules import DetectionThresholds, binomial_threshold
from repro.dirauth.consensus import Consensus
from repro.errors import ConsensusError
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


class _Window:
    """One window's report and how far the stream has scanned it."""

    __slots__ = (
        "report",
        "offset",
        "first_period",
        "next_period",
        "last_period",
        "id_entries",
        "hsdir_total",
    )

    def __init__(
        self,
        onion: OnionAddress,
        start: Timestamp,
        end: Timestamp,
        thresholds: DetectionThresholds,
    ) -> None:
        permanent_id = permanent_id_from_onion(onion)
        self.offset = (permanent_id[0] * DAY) // 256
        self.first_period = (int(start) + self.offset) // DAY
        self.next_period = self.first_period
        self.last_period = (int(end) + self.offset) // DAY
        # Every (period, replica) descriptor ID the window needs, derived in
        # one indexed pass: entry ``(period - first_period) * REPLICAS +
        # replica``.
        self.id_entries = descriptor_index_entries(onion, start, end)
        self.hsdir_total = 0
        self.report = TrackingReport(
            onion=onion,
            window=(int(start), int(end)),
            periods_analyzed=0,
            mean_hsdir_count=0.0,
            thresholds=thresholds,
        )


class TrackingAnalyzer:
    """Applies the rules to a consensus history as it is observed.

    Constructed for its windows (the paper split 3 years into yearly
    windows because the ring more than doubled), it takes the history one
    consensus at a time through :meth:`observe`, oldest first.  Each
    period is scanned against the latest consensus whose ``valid_after``
    is at or before the period's start; periods before the first
    consensus are skipped, and periods after the last use the last.  The
    analyzer keeps only the previous consensus, the first-seen time of
    every fingerprint, and each window's events, so a multi-year history
    never has to be held at once.
    """

    def __init__(
        self,
        windows: Iterable[Tuple[OnionAddress, Timestamp, Timestamp]],
        thresholds: Optional[DetectionThresholds] = None,
    ) -> None:
        self.thresholds = thresholds if thresholds is not None else DetectionThresholds()
        self._windows: Dict[Tuple[OnionAddress, int, int], _Window] = {
            (onion, int(start), int(end)): _Window(onion, start, end, self.thresholds)
            for onion, start, end in windows
        }
        self._previous: Optional[Consensus] = None
        self._first_seen: Dict[Fingerprint, Timestamp] = {}
        self._finished = False

    def observe(self, consensus: Consensus) -> None:
        """Take the next consensus; it must be strictly newer than the last.

        Every pending period that starts before ``consensus`` takes force
        is scanned against the previous consensus, in period order.
        """
        if self._finished:
            raise ConsensusError("history already analyzed; observe before analyze")
        previous = self._previous
        if previous is not None and consensus.valid_after <= previous.valid_after:
            raise ConsensusError(
                f"consensus at {consensus.valid_after} not newer than "
                f"previous {previous.valid_after}"
            )
        first_seen = self._first_seen
        for fingerprint in consensus.fingerprint_index.keys() - first_seen.keys():
            first_seen[fingerprint] = consensus.valid_after
        for window in self._windows.values():
            self._advance(window, previous, until=consensus.valid_after)
        self._previous = consensus

    def analyze(
        self, onion: OnionAddress, start: Timestamp, end: Timestamp
    ) -> TrackingReport:
        """The report for the window ``[start, end]``.

        The first call ends the history: every window's remaining periods
        are scanned against the last observed consensus.
        """
        window = self._windows.get((onion, int(start), int(end)))
        if window is None:
            raise ConsensusError(
                f"analyzer not constructed for {onion} over [{start}, {end}]"
            )
        if not self._finished:
            if self._previous is None:
                raise ConsensusError("no consensus observed to analyze")
            for pending in self._windows.values():
                self._advance(pending, self._previous)
            self._finished = True
        report = window.report
        if report.periods_analyzed:
            report.mean_hsdir_count = window.hsdir_total / report.periods_analyzed
        return report

    def _advance(
        self,
        window: _Window,
        consensus: Optional[Consensus],
        until: Optional[Timestamp] = None,
    ) -> None:
        """Scan ``window``'s periods that start before ``until`` (all, for
        ``None``) against ``consensus``; skip them if it is ``None``."""
        while window.next_period <= window.last_period:
            period = window.next_period
            if until is not None and period * DAY - window.offset >= until:
                return
            if consensus is not None:
                self._scan(window, consensus, period)
            window.next_period += 1

    def _scan(self, window: _Window, consensus: Consensus, period: int) -> None:
        ring = consensus.hsdir_ring
        if len(ring) == 0:
            return
        report = window.report
        report.periods_analyzed += 1
        window.hsdir_total += len(ring)
        period_index = period - window.first_period
        period_start = period * DAY - window.offset
        fresh_limit = self.thresholds.fresh_fingerprint_periods * DAY
        first_seen = self._first_seen
        servers = report.servers
        for replica in range(REPLICAS):
            desc_id = window.id_entries[period_index * REPLICAS + replica][0]
            for fingerprint in ring.responsible_for(desc_id):
                entry = consensus.entry_for(fingerprint)
                if entry is None:
                    continue
                record = servers.get(entry.address)
                if record is None:
                    record = servers[entry.address] = ServerRecord(server=entry.address)
                record.nicknames.add(entry.nickname)
                record.fingerprints_used.add(fingerprint)
                record.events.append(
                    ResponsibilityEvent(
                        period_index=period_index,
                        period_start=period_start,
                        fingerprint=fingerprint,
                        nickname=entry.nickname,
                        replica=replica,
                        ratio=ring.positioning_ratio(desc_id, fingerprint),
                        fresh_fingerprint=(
                            period_start - first_seen[fingerprint] <= fresh_limit
                        ),
                    )
                )
