"""Tests for repro.obs — metrics, spans, events, export, pmap threading."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    DEFAULT_BUCKETS,
    EventLog,
    Histogram,
    MetricsRegistry,
    NULL_OBSERVER,
    Observer,
    ensure_observer,
    render_json,
    render_spans,
    render_text,
    write_snapshot,
)
from repro.parallel import pmap


class TestCounters:
    def test_counts_and_merges(self):
        registry = MetricsRegistry()
        registry.counter("probes_total").inc()
        registry.counter("probes_total").inc(4)
        assert registry.counter("probes_total").value == 5

        shard = MetricsRegistry("shard")
        shard.counter("probes_total").inc(3)
        registry.merge(shard)
        assert registry.counter("probes_total").value == 8

    def test_labels_fork_series(self):
        registry = MetricsRegistry()
        registry.counter("outcomes_total", outcome="open").inc()
        registry.counter("outcomes_total", outcome="timeout").inc(2)
        assert registry.counter("outcomes_total", outcome="open").value == 1
        assert registry.counter("outcomes_total", outcome="timeout").value == 2

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("c", b="2", a="1").inc()
        registry.counter("c", a="1", b="2").inc()
        assert registry.counter("c", a="1", b="2").value == 2
        assert len(registry) == 1

    def test_negative_increment_rejected(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().counter("c").inc(-1)

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        with pytest.raises(ObservabilityError):
            registry.gauge("x")
        with pytest.raises(ObservabilityError):
            registry.histogram("x")


class TestGauges:
    def test_last_write_wins_on_merge(self):
        registry = MetricsRegistry()
        registry.gauge("open_ports").set(10)
        shard = MetricsRegistry("shard")
        shard.gauge("open_ports").set(7)
        registry.merge(shard)
        assert registry.gauge("open_ports").value == 7

    def test_unwritten_gauge_merges_away(self):
        registry = MetricsRegistry()
        registry.gauge("open_ports").set(10)
        shard = MetricsRegistry("shard")
        shard.gauge("open_ports")  # created, never set
        registry.merge(shard)
        assert registry.gauge("open_ports").value == 10


class TestHistograms:
    def test_bucket_edges_are_inclusive(self):
        # bisect_left semantics: value == bound lands in that bound's
        # bucket (Prometheus ``le`` — less-than-or-equal).
        histogram = Histogram(bounds=(1.0, 10.0))
        histogram.observe(1.0)
        histogram.observe(1.5)
        histogram.observe(10.0)
        histogram.observe(11.0)
        assert histogram.counts == [1, 2, 1]
        assert histogram.cumulative() == [
            (1.0, 1),
            (10.0, 3),
            (float("inf"), 4),
        ]
        assert histogram.sum == 23.5
        assert histogram.count == 4

    def test_default_buckets_are_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_merge_adds_vectors(self):
        a = Histogram(bounds=(1.0, 2.0))
        b = Histogram(bounds=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(5.0)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3

    def test_merge_bound_mismatch_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram(bounds=(1.0,)).merge(Histogram(bounds=(2.0,)))

    def test_registry_bound_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("latency", buckets=(1.0, 2.0))
        with pytest.raises(ObservabilityError):
            registry.histogram("latency", buckets=(1.0, 3.0))

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram(bounds=(2.0, 1.0))

    def test_empty_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram(bounds=())


class TestSpans:
    def test_add_time_credits_innermost_open_span(self):
        observer = Observer()
        with observer.span("campaign"):
            observer.add_time(10)
            with observer.span("day", day=0):
                observer.add_time(86400)
            observer.add_time(5)
        campaign = observer.spans[0]
        assert campaign.own_seconds == 15
        assert campaign.duration == 15 + 86400
        assert campaign.children[0].name == "day"
        assert campaign.children[0].attrs == (("day", "0"),)

    def test_toplevel_spans_in_creation_order(self):
        observer = Observer()
        with observer.span("scan"):
            pass
        with observer.span("crawl"):
            pass
        assert [span.name for span in observer.spans] == ["scan", "crawl"]

    def test_absorb_grafts_under_open_span(self):
        parent = Observer()
        child = parent.child("shard@0")
        with child.span("probe"):
            child.add_time(3)
        with parent.span("scan.day"):
            parent.absorb(child)
        day = parent.spans[0]
        assert [span.name for span in day.children] == ["probe"]
        assert day.duration == 3

    def test_negative_time_rejected(self):
        observer = Observer()
        with observer.span("s"):
            with pytest.raises(ObservabilityError):
                observer.add_time(-1)

    def test_current_span_follows_the_stack(self):
        observer = Observer()
        assert observer.current_span is None
        with observer.span("scan") as scan:
            assert observer.current_span is scan
            with observer.span("day") as day:
                assert observer.current_span is day
            assert observer.current_span is scan
        assert observer.current_span is None

    def test_attrs_are_canonical_strings(self):
        observer = Observer()
        with observer.span("probe", port=80, onion="x.onion"):
            pass
        assert observer.spans[0].attrs == (("onion", "x.onion"), ("port", "80"))

    def test_disabled_observer_records_no_span(self):
        observer = Observer.disabled()
        with observer.span("scan") as opened:
            observer.add_time(5)
            assert observer.current_span is None
        assert observer.spans == []
        assert opened.duration == 0

    def test_empty_span_name_rejected(self):
        with pytest.raises(ObservabilityError):
            with Observer().span(""):
                pass

    def test_time_outside_any_span_is_dropped(self):
        observer = Observer()
        observer.add_time(7)
        with observer.span("s"):
            pass
        assert observer.spans[0].duration == 0


class TestEventLog:
    def test_bound_counts_overflow(self):
        log = EventLog(max_events=2)
        log.add("a")
        log.add("b")
        log.add("c")
        assert len(log) == 2
        assert log.dropped == 1

    def test_extend_respects_bound(self):
        log = EventLog(max_events=2)
        log.add("a")
        other = EventLog(max_events=10)
        other.add("b")
        other.add("c")
        log.extend(other)
        assert [event.name for event in log.events] == ["a", "b"]
        assert log.dropped == 1


class TestObserver:
    def test_disabled_observer_records_nothing(self):
        observer = Observer.disabled()
        observer.count("c")
        observer.gauge("g", 1)
        observer.observe("h", 2.0)
        observer.event("e")
        with observer.span("s"):
            observer.add_time(10)
        assert len(observer.registry) == 0
        assert len(observer.events) == 0
        assert observer.spans == []

    def test_null_observer_is_shared_and_inert(self):
        assert ensure_observer(None) is NULL_OBSERVER
        NULL_OBSERVER.count("c")
        assert len(NULL_OBSERVER.registry) == 0

    def test_ensure_observer_passes_through(self):
        observer = Observer()
        assert ensure_observer(observer) is observer

    def test_absorb_merges_all_planes(self):
        parent = Observer()
        parent.count("c")
        child = parent.child("shard@0")
        child.count("c", amount=2)
        child.gauge("g", 9)
        child.event("flap", onion="x")
        parent.absorb(child)
        assert parent.registry.counter("c").value == 3
        assert parent.registry.gauge("g").value == 9
        assert parent.events.events[0].name == "flap"


class TestPmapObserver:
    @staticmethod
    def _observed_square(item, obs):
        obs.count("items_total")
        obs.observe("item_value", item, buckets=(2.0, 8.0))
        return item * item

    def test_snapshot_identical_at_every_worker_count(self):
        snapshots = set()
        results = set()
        for workers in (1, 2, 8):
            observer = Observer()
            out = pmap(
                self._observed_square,
                list(range(12)),
                workers=workers,
                observer=observer,
            )
            results.add(tuple(out))
            snapshots.add(render_text(observer))
        assert len(results) == 1
        assert len(snapshots) == 1
        assert "items_total" in next(iter(snapshots))

    def test_disabled_observer_skips_instrumented_call(self):
        # A disabled observer is treated as "nobody watching": fn is called
        # without the extra argument, so plain single-arg fns still work.
        observer = Observer.disabled()
        out = pmap(lambda item: item + 1, [1, 2, 3], workers=2, observer=observer)
        assert out == [2, 3, 4]


class TestExport:
    def _populated_observer(self):
        observer = Observer(name="test")
        observer.count("probes_total", amount=3, api="scan")
        observer.gauge("open_ports", 7)
        observer.observe("settle_seconds", 2.0, buckets=(1.0, 5.0))
        observer.event("flap", onion="abc")
        with observer.span("campaign", days=2):
            observer.add_time(120)
        return observer

    def test_text_sections_and_sorting(self):
        text = render_text(self._populated_observer())
        assert text.startswith("# metrics\n")
        assert '\nprobes_total{api="scan"} 3\n' in text
        assert '\nsettle_seconds_bucket{le="+Inf"} 1\n' in text
        assert "\nsettle_seconds_sum 2\n" in text
        assert "# spans (simulated seconds)" in text
        assert 'campaign{days="2"} duration=120s own=120s' in text
        assert "# events (dropped=0)" in text
        assert 'flap{onion="abc"}' in text
        # Metric families appear in name-sorted order (bucket rows within a
        # histogram stay in bound order, so whole lines aren't comparable).
        metric_lines = text.split("\n\n")[0].splitlines()[1:]
        families = []
        for line in metric_lines:
            family = line.split("{")[0].split(" ")[0]
            family = family.removesuffix("_bucket").removesuffix(
                "_sum"
            ).removesuffix("_count")
            if family not in families:
                families.append(family)
        assert families == sorted(families)

    def test_render_is_deterministic(self):
        assert render_text(self._populated_observer()) == render_text(
            self._populated_observer()
        )

    def test_json_round_trips(self):
        document = json.loads(render_json(self._populated_observer()))
        by_name = {entry["name"]: entry for entry in document["metrics"]}
        assert by_name["probes_total"]["value"] == 3
        assert by_name["probes_total"]["labels"] == {"api": "scan"}
        assert by_name["settle_seconds"]["count"] == 1
        assert document["spans"][0]["duration"] == 120
        assert document["events"][0]["fields"] == {"onion": "abc"}
        assert document["dropped_events"] == 0

    def test_empty_observer_renders_placeholders(self):
        text = render_text(Observer())
        assert "(none)" in text
        assert render_spans(Observer()) == "# spans (simulated seconds)\n(none)"

    def test_write_snapshot_text_and_json(self, tmp_path):
        observer = self._populated_observer()
        text_path = tmp_path / "snap.txt"
        json_path = tmp_path / "snap.json"
        write_snapshot(observer, str(text_path))
        write_snapshot(observer, str(json_path))
        assert text_path.read_text() == render_text(observer) + "\n"
        json.loads(json_path.read_text())
