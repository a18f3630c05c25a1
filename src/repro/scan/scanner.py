"""The multi-day port scanner.

Walks the harvested onion list according to a :class:`ScanSchedule`: on each
scan day it probes that day's port chunk on every onion whose descriptor is
still available.  Abnormal errors (Skynet's port 55080) count as open, per
the paper's methodology.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.crypto.onion import OnionAddress
from repro.faults.retry import (
    RetryPolicy,
    connect_with_retry,
    fetch_descriptor_with_retry,
)
from repro.faults.taxonomy import FailureCategory
from repro.net.endpoint import ConnectOutcome
from repro.net.transport import TorTransport
from repro.obs.scope import Observer, ensure_observer
from repro.parallel.executor import pmap
from repro.scan.results import ScanResults
from repro.scan.schedule import ScanSchedule
from repro.sim.clock import DAY


class PortScanner:
    """Scans a harvested onion list through the simulated Tor transport.

    With a :class:`RetryPolicy`, timed-out port probes are retried (a SYN
    scan needs only proof the port is open, so truncated conversations are
    accepted as-is) and a missing descriptor earns a bounded re-fetch; each
    retried probe lands in :attr:`ScanResults.failures`.  Without a policy
    the scanner behaves exactly as before: every failure is final.

    An :class:`~repro.obs.scope.Observer` records the campaign as nested
    spans (one per scan day, a simulated day each), counts every port
    requested (``scan_ports_requested_total`` — the counter that proves
    priority ports are deduplicated against the day's chunk), and gauges
    the end-of-campaign totals.
    """

    def __init__(
        self,
        transport: TorTransport,
        retry_policy: Optional[RetryPolicy] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self._transport = transport
        self._retry_policy = retry_policy
        self._observer = ensure_observer(observer)

    def run(
        self,
        onions: Iterable[OnionAddress],
        schedule: ScanSchedule,
        extra_priority_ports: Iterable[int] = (),
        workers: Optional[int] = None,
    ) -> ScanResults:
        """Execute the full schedule.

        ``extra_priority_ports`` are probed *every* day on every onion (the
        paper's scanner revisited interesting ports such as 55080 after the
        anomaly was noticed); a port found open on any day stays found.

        Each scan day fans its onion probes out through
        :func:`repro.parallel.pmap`.  The probe closure captures the live
        transport (whose circuit-noise stream is shared across probes), so
        it is deliberately unpicklable: the executor keeps it in-process
        and in onion order, which is what makes the results byte-identical
        at every ``workers`` value.
        """
        onion_list: List[OnionAddress] = list(onions)
        priority = sorted(set(extra_priority_ports))
        policy = self._retry_policy
        obs = self._observer
        results = ScanResults()
        results.scanned_onions = len(onion_list)
        with obs.span(
            "scan.campaign", days=schedule.days, onions=len(onion_list)
        ):
            for day_index, when, chunk, extra in schedule.expanded_campaign(
                priority
            ):
                with obs.span("scan.day", day=day_index):
                    obs.add_time(DAY)

                    def probe_onion(onion, _when=when, _chunk=chunk, _extra=extra):
                        if policy is None:
                            has_descriptor = self._transport.has_descriptor(
                                onion, _when
                            )
                            fetch_attempts = 1
                        else:
                            has_descriptor, fetch_attempts = (
                                fetch_descriptor_with_retry(
                                    self._transport,
                                    onion,
                                    _when,
                                    policy,
                                    observer=obs,
                                )
                            )
                        obs.count(
                            "scan_ports_requested_total",
                            amount=len(_chunk) + len(_extra),
                        )
                        probes = self._transport.scan_ports(onion, _chunk, _when)
                        if _extra:
                            probes.update(
                                self._transport.scan_ports(onion, _extra, _when)
                            )
                        retried = []
                        if policy is not None:
                            # A SYN scan retries only timeouts: REFUSED never
                            # makes it into the batch, truncation is
                            # conversation-layer.
                            for port in sorted(probes):
                                if probes[port].outcome is not ConnectOutcome.TIMEOUT:
                                    continue
                                outcome = connect_with_retry(
                                    self._transport,
                                    onion,
                                    port,
                                    _when,
                                    policy,
                                    initial=probes[port],
                                    require_conversation=False,
                                    observer=obs,
                                )
                                probes[port] = outcome.result
                                retried.append((outcome.category, outcome.attempts))
                        return has_descriptor, fetch_attempts, probes, retried

                    day_probes = pmap(probe_onion, onion_list, workers=workers)
                    for onion, (
                        has_descriptor,
                        fetch_attempts,
                        probes,
                        retried,
                    ) in zip(onion_list, day_probes):
                        if has_descriptor:
                            results.descriptor_onions.add(onion)
                            if fetch_attempts > 1:
                                results.failures.record(
                                    FailureCategory.TRANSIENT_RECOVERED,
                                    fetch_attempts,
                                )
                        results.descriptor_refetches += fetch_attempts - 1
                        for category, attempts in retried:
                            results.failures.record(category, attempts)
                        for port, result in probes.items():
                            results.record(onion, port, result.outcome)
        obs.gauge("scan_descriptor_onions", len(results.descriptor_onions))
        obs.gauge("scan_reachable_onions", len(results.reachable_onions))
        obs.gauge("scan_open_ports", results.total_open_ports)
        obs.gauge("scan_probes_answered", results.probes_answered)
        obs.gauge("scan_timeouts", results.timeouts)
        return results
