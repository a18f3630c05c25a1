"""Request-rate time series and machine-vs-human traffic forensics.

Part of what betrayed Goldnet (Section V) was traffic *shape*: "traffic to
these servers remained constant at about 330 KBytes/sec and had about 10
client requests per second, almost exclusively POST requests".  Botnets
phone home on timers; people sleep.  This module builds per-bucket request
series from directory logs and scores their constancy, giving measurement
code a second, content-free botnet detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import ModuleType
from typing import ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import accel
from repro.crypto.descriptor_id import DescriptorId
from repro.errors import ReproError
from repro.hsdir.directory import HSDirServer
from repro.sim.clock import HOUR, Timestamp


def _shape_statistics(
    length: int, total: int, sum_of_squares: int
) -> Tuple[float, float]:
    """``(coefficient of variation, Poisson floor)`` from exact int moments.

    The one arithmetic path shared by :class:`RequestTimeSeries` and the
    batched classifier: both feed it the same exact integers, so scalar and
    batch classification decisions are bit-identical, not merely close.
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
        so the batched classifier reproduces it bit-for-bit.
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

    def format_sparkline(self) -> str:
        """One-line bar rendering of the series."""
        if not self.counts:
            return "(empty)"
        blocks = " ▁▂▃▄▅▆▇█"
        peak = max(self.counts) or 1
        return "".join(
            blocks[min(8, round(8 * count / peak))] for count in self.counts
        )


class _PackedLog:
    """One directory's request log as columnar arrays (the timeseries kernel).

    ``times`` holds every record's timestamp as int64; ``by_id`` maps each
    distinct descriptor ID to the array of record indices that requested it.
    Packing costs one pass over the log and is cached on the server object
    (keyed on list identity *and* length — the log is append-only, so equal
    identity and length imply equal contents), after which every per-service
    series is a gather + ``bincount`` instead of a full-log Python scan.
    """

    __slots__ = ("times", "by_id")

    def __init__(self, log: Sequence, np: ModuleType) -> None:
        self.times = np.fromiter(
            (record.time for record in log), dtype=np.int64, count=len(log)
        )
        grouped: Dict[DescriptorId, List[int]] = {}
        for index, record in enumerate(log):
            grouped.setdefault(record.descriptor_id, []).append(index)
        self.by_id = {
            desc: np.asarray(indices, dtype=np.int64)
            for desc, indices in grouped.items()
        }


_PACKED_CACHE_ATTR = "_repro_timeseries_packed"


def _packed_log(server: HSDirServer, np: ModuleType) -> "_PackedLog":
    log = server.logged_requests()
    cached = getattr(server, _PACKED_CACHE_ATTR, None)
    if cached is not None and cached[0] is log and cached[1] == len(log):
        return cached[2]
    packed = _PackedLog(log, np)
    setattr(server, _PACKED_CACHE_ATTR, (log, len(log), packed))
    return packed


def series_from_log_scalar(
    server: HSDirServer,
    start: Timestamp,
    end: Timestamp,
    bucket_seconds: int = HOUR,
    descriptor_ids: Optional[Iterable[DescriptorId]] = None,
) -> RequestTimeSeries:
    """Scalar reference for :func:`series_from_log` (the per-record loop).

    Kept as the byte-equivalence oracle the packed-array kernel is tested
    against; also the fallback when numpy is unavailable.
    """
    if end <= start:
        raise ReproError(f"empty window: [{start}, {end})")
    wanted = set(descriptor_ids) if descriptor_ids is not None else None
    buckets = [0] * max(1, (int(end) - int(start) + bucket_seconds - 1) // bucket_seconds)
    for record in server.logged_requests():
        if not start <= record.time < end:
            continue
        if wanted is not None and record.descriptor_id not in wanted:
            continue
        buckets[(record.time - int(start)) // bucket_seconds] += 1
    return RequestTimeSeries(
        start=int(start), bucket_seconds=bucket_seconds, counts=buckets
    )


def series_from_log(
    server: HSDirServer,
    start: Timestamp,
    end: Timestamp,
    bucket_seconds: int = HOUR,
    descriptor_ids: Optional[Iterable[DescriptorId]] = None,
) -> RequestTimeSeries:
    """Bucket one directory's detailed request log.

    Requires the server to keep its log (``keep_log=True``); a log-less
    directory raises :class:`~repro.errors.ReproError`.
    ``descriptor_ids`` restricts the series to specific IDs (one service).

    Runs on the packed-array kernel when numpy is available: the log is
    packed once per server (cached), then a service's series is a gather of
    its records' timestamps and one ``bincount`` — instead of re-scanning
    the full log per service.  Counts are integers throughout, so kernel
    and scalar outputs are byte-identical.
    """
    np = accel.numpy()
    if np is None:
        return series_from_log_scalar(
            server, start, end, bucket_seconds, descriptor_ids
        )
    if end <= start:
        raise ReproError(f"empty window: [{start}, {end})")
    if bucket_seconds <= 0:
        raise ReproError(f"bucket width must be positive: {bucket_seconds}")
    start = int(start)
    bucket_count = max(1, (int(end) - start + bucket_seconds - 1) // bucket_seconds)
    packed = _packed_log(server, np)
    if descriptor_ids is None:
        times = packed.times
    else:
        # Bucket counts are additive, so the gather order across IDs cannot
        # affect the result; sorting just keeps the iteration order
        # deterministic on principle (REP005).
        chunks = [
            packed.by_id[desc]
            for desc in sorted(set(descriptor_ids))
            if desc in packed.by_id
        ]
        if chunks:
            times = packed.times[np.concatenate(chunks)]
        else:
            times = packed.times[:0]
    in_window = times[(times >= start) & (times < int(end))]
    counts = np.bincount((in_window - start) // bucket_seconds, minlength=bucket_count)
    return RequestTimeSeries(
        start=start,
        bucket_seconds=bucket_seconds,
        counts=[int(c) for c in counts],
    )


def merge_series_scalar(series: Sequence[RequestTimeSeries]) -> RequestTimeSeries:
    """Scalar reference for :func:`merge_series` (the nested Python loops)."""
    if not series:
        raise ReproError("nothing to merge")
    first = series[0]
    for other in series[1:]:
        if (
            other.start != first.start
            or other.bucket_seconds != first.bucket_seconds
            or len(other.counts) != len(first.counts)
        ):
            raise ReproError("series are not aligned")
    counts = [0] * len(first.counts)
    for one in series:
        for index, count in enumerate(one.counts):
            counts[index] += count
    return RequestTimeSeries(
        start=first.start, bucket_seconds=first.bucket_seconds, counts=counts
    )


def merge_series(series: Sequence[RequestTimeSeries]) -> RequestTimeSeries:
    """Sum aligned series from several directories.

    Kernelised as one column-wise integer sum over the stacked counts;
    integer addition is exact and order-free, so the merge equals
    :func:`merge_series_scalar` byte-for-byte.
    """
    np = accel.numpy() if len(series) >= 2 else None
    if np is None:
        return merge_series_scalar(series)
    first = series[0]
    for other in series[1:]:
        if (
            other.start != first.start
            or other.bucket_seconds != first.bucket_seconds
            or len(other.counts) != len(first.counts)
        ):
            raise ReproError("series are not aligned")
    if not first.counts:
        counts: List[int] = []
    else:
        stacked = np.asarray([one.counts for one in series], dtype=np.int64)
        counts = [int(c) for c in stacked.sum(axis=0)]
    return RequestTimeSeries(
        start=first.start, bucket_seconds=first.bucket_seconds, counts=counts
    )


def classify_services_by_shape_scalar(
    series_per_service: Dict[str, RequestTimeSeries],
    tolerance: float = 2.0,
    min_requests: int = 50,
) -> Dict[str, str]:
    """Scalar reference for :func:`classify_services_by_shape`."""
    labels: Dict[str, str] = {}
    for service, series in series_per_service.items():
        if series.total < min_requests:
            labels[service] = "low-volume"
        elif series.is_machine_like(tolerance):
            labels[service] = "machine"
        else:
            labels[service] = "human"
    return labels


#: Upper bound on ``n·max(c)²`` below which the batched int64 moment sums
#: cannot overflow; series beyond it take the Python-int path instead.
_MOMENT_SAFE_LIMIT = 1 << 62


def classify_services_by_shape(
    series_per_service: Dict[str, RequestTimeSeries],
    tolerance: float = 2.0,
    min_requests: int = 50,
) -> Dict[str, str]:
    """Label each service ``machine`` / ``human`` / ``low-volume``.

    The content-free counterpart of the paper's server-status forensics:
    rank candidates by traffic shape before probing them.

    Batched: equal-length series are stacked into one integer matrix whose
    row sums and sums-of-squares are computed in one pass, then every
    decision runs through the same exact-integer-moment arithmetic as
    :meth:`RequestTimeSeries.is_machine_like` — identical integers in,
    identical floats out, so labels match the scalar path bit-for-bit.
    """
    np = accel.numpy() if len(series_per_service) >= 4 else None
    if np is None:
        return classify_services_by_shape_scalar(
            series_per_service, tolerance, min_requests
        )

    def decide(length: int, total: int, sum_squares: int) -> str:
        if total < min_requests:
            return "low-volume"
        if total == 0:
            return "human"  # no traffic carries no shape evidence
        cv, floor = _shape_statistics(length, total, sum_squares)
        return "machine" if cv <= tolerance * floor else "human"

    labels: Dict[str, str] = {}
    by_length: Dict[int, List[str]] = {}
    for service, series in series_per_service.items():
        by_length.setdefault(len(series.counts), []).append(service)
    for length, services in by_length.items():
        peak = max(
            (abs(c) for s in services for c in series_per_service[s].counts),
            default=0,
        )
        if length == 0 or length * peak * peak >= _MOMENT_SAFE_LIMIT:
            for service in services:
                counts = series_per_service[service].counts
                labels[service] = decide(
                    len(counts), sum(counts), sum(c * c for c in counts)
                )
            continue
        matrix = np.asarray(
            [series_per_service[s].counts for s in services], dtype=np.int64
        )
        totals = matrix.sum(axis=1)
        squares = (matrix * matrix).sum(axis=1)
        for service, total, sum_squares in zip(
            services, totals.tolist(), squares.tolist()
        ):
            labels[service] = decide(length, int(total), int(sum_squares))
    # Re-emit in input order so the mapping iterates exactly like the
    # scalar reference's would, not grouped by series length.
    return {service: labels[service] for service in series_per_service}
