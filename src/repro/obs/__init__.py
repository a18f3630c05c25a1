"""repro.obs — the deterministic observability plane.

Counters, gauges and fixed-bucket histograms (:mod:`repro.obs.metrics`),
sim-clock spans and a bounded event log (:mod:`repro.obs.trace`), stable
text/JSON snapshots (:mod:`repro.obs.export`), all carried by an explicit
:class:`~repro.obs.scope.Observer` threaded through the pipeline
(:mod:`repro.obs.scope`) — never global mutable state.  Snapshots are
byte-identical at any worker count; source check REP009 keeps ad-hoc
``print``/``perf_counter`` instrumentation out of library code.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.scope import NULL_OBSERVER, Observer, ensure_observer
from repro.obs.trace import Event, EventLog, Span
from repro.obs.export import (
    render_json,
    render_spans,
    render_text,
    write_snapshot,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "Observer",
    "ensure_observer",
    "Event",
    "EventLog",
    "Span",
    "render_json",
    "render_spans",
    "render_text",
    "write_snapshot",
]
