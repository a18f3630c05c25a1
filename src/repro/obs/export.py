"""Stable snapshot rendering for observer state.

The text format is Prometheus-style exposition lines followed by the span
tree and the event log; everything is sorted or sequence-ordered by
construction, so the same run renders the same bytes at any worker count —
which is what lets the small-pipeline snapshot live under
``tests/goldens/``.  ``--metrics-out`` (or ``$REPRO_METRICS``) chooses
where a CLI run writes its snapshot; a ``.json`` suffix selects the JSON
form.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, LabelItems
from repro.obs.scope import Observer
from repro.obs.trace import Span

def _fmt_number(value) -> str:
    """Integral floats print as ints; everything else as repr."""
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value.is_integer():
            return str(int(value))
        return repr(value)
    return str(value)


def _fmt_labels(labels: LabelItems, extra: Optional[str] = None) -> str:
    parts = [f'{key}="{value}"' for key, value in labels]
    if extra is not None:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _metric_lines(observer: Observer) -> List[str]:
    lines: List[str] = []
    for name, labels, metric in observer.registry.items():
        if isinstance(metric, (Counter, Gauge)):
            lines.append(
                f"{name}{_fmt_labels(labels)} {_fmt_number(metric.value)}"
            )
        elif isinstance(metric, Histogram):
            for bound, cumulative in metric.cumulative():
                le = f'le="{_fmt_number(bound)}"'
                lines.append(
                    f"{name}_bucket{_fmt_labels(labels, le)} {cumulative}"
                )
            lines.append(
                f"{name}_sum{_fmt_labels(labels)} {_fmt_number(metric.sum)}"
            )
            lines.append(f"{name}_count{_fmt_labels(labels)} {metric.count}")
    return lines


def _span_lines(spans: List[Span], depth: int = 0) -> List[str]:
    lines: List[str] = []
    for span in spans:
        lines.append(
            f"{'  ' * depth}{span.name}{_fmt_labels(span.attrs)} "
            f"duration={span.duration}s own={span.own_seconds}s"
        )
        lines.extend(_span_lines(span.children, depth + 1))
    return lines


def render_spans(observer: Observer) -> str:
    """Just the span-timing tree (benchmark per-phase reports)."""
    lines = ["# spans (simulated seconds)"]
    lines.extend(_span_lines(observer.spans) or ["(none)"])
    return "\n".join(lines)


def render_text(observer: Observer) -> str:
    """The full text snapshot: metrics, then spans, then events."""
    lines = ["# metrics"]
    lines.extend(_metric_lines(observer) or ["(none)"])
    lines.append("")
    lines.append(render_spans(observer))
    lines.append("")
    lines.append(f"# events (dropped={observer.events.dropped})")
    event_lines = [
        f"{event.name}{_fmt_labels(event.fields)}"
        for event in observer.events.events
    ]
    lines.extend(event_lines or ["(none)"])
    return "\n".join(lines)


def _span_dict(span: Span) -> dict:
    return {
        "name": span.name,
        "attrs": {key: value for key, value in span.attrs},
        "own_seconds": span.own_seconds,
        "duration": span.duration,
        "children": [_span_dict(child) for child in span.children],
    }


def render_json(observer: Observer) -> str:
    """The snapshot as a stable (sorted-key) JSON document."""
    metrics: List[dict] = []
    for name, labels, metric in observer.registry.items():
        entry: dict = {"name": name, "labels": {k: v for k, v in labels}}
        if isinstance(metric, Counter):
            entry["type"] = "counter"
            entry["value"] = metric.value
        elif isinstance(metric, Gauge):
            entry["type"] = "gauge"
            entry["value"] = metric.value
        else:
            entry["type"] = "histogram"
            entry["buckets"] = [
                {"le": _fmt_number(bound), "cumulative": cumulative}
                for bound, cumulative in metric.cumulative()
            ]
            entry["sum"] = metric.sum
            entry["count"] = metric.count
        metrics.append(entry)
    document = {
        "metrics": metrics,
        "spans": [_span_dict(span) for span in observer.spans],
        "events": [
            {"name": event.name, "fields": {k: v for k, v in event.fields}}
            for event in observer.events.events
        ],
        "dropped_events": observer.events.dropped,
    }
    return json.dumps(document, indent=2, sort_keys=True)


def write_snapshot(observer: Observer, path: str) -> str:
    """Write the snapshot to ``path`` (JSON when it ends in ``.json``)."""
    text = render_json(observer) if path.endswith(".json") else render_text(observer)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return path
