"""Request-rate time series and machine-vs-human traffic forensics.

Part of what betrayed Goldnet (Section V) was traffic *shape*: "traffic to
these servers remained constant at about 330 KBytes/sec and had about 10
client requests per second, almost exclusively POST requests".  Botnets
phone home on timers; people sleep.  This module builds per-bucket request
series from directories' hourly request tallies and scores their
constancy, giving measurement code a second, content-free botnet detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, Iterable, List, Mapping, Tuple, TypeVar

from repro.crypto.descriptor_id import DescriptorId
from repro.errors import ReproError
from repro.sim.clock import HOUR, Timestamp

K = TypeVar("K")


def _shape_statistics(
    length: int, total: int, sum_of_squares: int
) -> Tuple[float, float]:
    """``(coefficient of variation, Poisson floor)`` from exact int moments.

    The one arithmetic path shared by :class:`RequestTimeSeries` and
    :func:`classify_services_by_shape`: both feed it the same exact
    integers, so their decisions are bit-identical, not merely close.
    Variance uses the moment form ``(n·Σc² − S²) / n²``, exact in integers
    until the single final division.
    """
    if length <= 0 or total <= 0:
        return 0.0, 0.0
    variance = (length * sum_of_squares - total * total) / (length * length)
    mean = total / length
    return math.sqrt(variance) / mean, 1.0 / math.sqrt(mean)


@dataclass
class RequestTimeSeries:
    """Request counts per fixed-width time bucket."""

    KIND: ClassVar[str] = "request-timeseries"

    start: Timestamp
    bucket_seconds: int
    counts: List[int]

    def __post_init__(self) -> None:
        if self.bucket_seconds <= 0:
            raise ReproError(f"bucket width must be positive: {self.bucket_seconds}")

    @property
    def total(self) -> int:
        """All requests in the series."""
        return sum(self.counts)

    @property
    def mean_rate(self) -> float:
        """Mean requests per bucket."""
        return self.total / len(self.counts) if self.counts else 0.0

    def coefficient_of_variation(self) -> float:
        """σ/μ of the bucket counts — the constancy statistic.

        Timer-driven (botnet) traffic sits near the Poisson floor
        ``1/sqrt(mean)``; human traffic adds diurnal swing on top.
        Computed from exact integer moments (see :func:`_shape_statistics`)
        so :func:`classify_services_by_shape` reproduces it bit-for-bit.
        """
        counts = self.counts
        cv, _ = _shape_statistics(
            len(counts), sum(counts), sum(c * c for c in counts)
        )
        return cv

    def poisson_floor(self) -> float:
        """The CV a perfectly constant-rate (Poisson) source would show."""
        mean = self.mean_rate
        return 1.0 / math.sqrt(mean) if mean > 0 else 0.0

    def is_machine_like(self, tolerance: float = 2.0) -> bool:
        """Whether the series is consistent with a constant-rate source.

        True when the observed CV is within ``tolerance`` × the Poisson
        floor — i.e. no more bursty than pure arrival noise allows.  A
        series with no traffic at all carries no shape evidence, so it is
        neither machine- nor human-like: always False.
        """
        if self.total == 0:
            return False
        return self.coefficient_of_variation() <= tolerance * self.poisson_floor()


def _bucket_count(start: Timestamp, end: Timestamp, bucket_seconds: int) -> int:
    """Buckets covering ``[start, end)``; rejects an empty window."""
    if end <= start:
        raise ReproError(f"empty window: [{start}, {end})")
    if bucket_seconds <= 0:
        raise ReproError(f"bucket width must be positive: {bucket_seconds}")
    return max(1, (int(end) - int(start) + bucket_seconds - 1) // bucket_seconds)


def series_by_owner(
    tallies: Iterable[Mapping[Timestamp, Mapping[DescriptorId, int]]],
    owner_of: Mapping[DescriptorId, K],
    start: Timestamp,
    end: Timestamp,
    bucket_seconds: int = HOUR,
) -> Dict[K, RequestTimeSeries]:
    """Every owner's request series from directories' hourly tallies.

    ``tallies`` are :meth:`~repro.hsdir.directory.HSDirServer.hourly_requests`
    maps (hour start → descriptor ID → fetches); ``owner_of`` maps each
    descriptor ID to the service that owns it.  Each tallied hour inside
    ``[start, end)`` adds its owned IDs' fetches to their owner's bucket;
    every owner gets a series, in sorted owner order, even one no fetch
    names.  An hour tally cannot be split, so the window and the bucket
    must lie on whole hours.
    """
    length = _bucket_count(start, end, bucket_seconds)
    start, end = int(start), int(end)
    if start % HOUR or end % HOUR or bucket_seconds % HOUR:
        raise ReproError(
            f"window [{start}, {end}) with {bucket_seconds} s buckets "
            "is not on whole hours"
        )
    counts = {owner: [0] * length for owner in sorted(set(owner_of.values()))}
    row_of = {desc: counts[owner] for desc, owner in owner_of.items()}
    for tally in tallies:
        for hour, fetches in tally.items():
            if start <= hour < end:
                bucket = (hour - start) // bucket_seconds
                for desc, count in fetches.items():
                    row = row_of.get(desc)
                    if row is not None:
                        row[bucket] += count
    return {
        owner: RequestTimeSeries(start=start, bucket_seconds=bucket_seconds, counts=row)
        for owner, row in counts.items()
    }


def classify_services_by_shape(
    series_per_service: Mapping[K, RequestTimeSeries],
    tolerance: float = 2.0,
    min_requests: int = 50,
) -> Dict[K, str]:
    """Label each service ``machine`` / ``human`` / ``low-volume``.

    The content-free counterpart of the paper's server-status forensics:
    rank candidates by traffic shape before probing them.  Below
    ``min_requests`` a service is ``low-volume``; otherwise it is
    ``machine`` exactly when :meth:`RequestTimeSeries.is_machine_like`
    holds, decided from one pass of exact integer sums per series.
    """
    labels: Dict[K, str] = {}
    for service, series in series_per_service.items():
        counts = series.counts
        total = sum(counts)
        if total < min_requests:
            labels[service] = "low-volume"
            continue
        cv, floor = _shape_statistics(
            len(counts), total, sum(c * c for c in counts)
        )
        # No traffic carries no shape evidence: never machine-like.
        machine = total != 0 and cv <= tolerance * floor
        labels[service] = "machine" if machine else "human"
    return labels
