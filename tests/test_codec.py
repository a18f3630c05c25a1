"""Tests for repro.codec: derived encodings and the strict decoder."""

import json
import re
from dataclasses import dataclass, field
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.report import ComparisonRow, ExperimentReport
from repro.codec import SKIP, decode, encode
from repro.crawl.crawler import CrawlResults
from repro.crawl.page import FetchedPage, PageKind
from repro.errors import ReproError
from repro.experiments.harvest import HarvestExperimentResult
from repro.experiments.pipeline import ClassificationOutcome
from repro.experiments.sec7_tracking import Sec7Result
from repro.experiments.table2_popularity import Table2Result
from repro.faults.taxonomy import FailureTaxonomy
from repro.net.endpoint import ConnectOutcome
from repro.popularity.ranking import PopularityRanking, RankedService
from repro.popularity.timeseries import RequestTimeSeries
from repro.scan.results import ScanResults
from repro.supervise.crashplan import CrashEvent
from repro.supervise.manifest import STAGE_COMPLETE, CompletenessManifest, StageStatus

ONION_A = "aa" * 8 + ".onion"
ONION_B = "bb" * 8 + ".onion"


@dataclass
class TypeOnlySkip:
    """A skipped field may name a type its module imports only for checkers."""

    count: int = 0
    world: Optional["NotImportedHere"] = field(default=None, metadata=SKIP)  # noqa: F821


def dig(data, path):
    """The container ``path`` leads to inside an encoding."""
    for step in path:
        data = data[step]
    return data


def make_crawl():
    return CrawlResults(
        pages=[FetchedPage(onion=ONION_A, port=80, scheme="http", kind=PageKind.HTML)],
        tried=1,
    )


class TestDerivedEncoding:
    def test_kind_header_only_on_classes_that_declare_one(self):
        data = encode(make_crawl())
        assert (data["schema"], data["kind"]) == (1, "crawl-results")
        assert "schema" not in data["failures"]
        assert data["pages"][0]["kind"] == "html"  # the page's own field

    def test_nested_artifacts_keep_their_headers(self):
        result = Table2Result(ranking=PopularityRanking())
        data = encode(result)
        assert "kind" not in data
        assert data["ranking"]["kind"] == "popularity-ranking"
        assert data["report"]["kind"] == "experiment-report"

    @pytest.mark.parametrize(
        "result, fields",
        [
            (
                Table2Result(ranking=PopularityRanking(), shape_labels={}),
                {
                    "report",
                    "ranking",
                    "total_requests_observed",
                    "unique_ids_observed",
                    "label_to_onion",
                },
            ),
            (Sec7Result(), {"report"}),
            (
                HarvestExperimentResult(),
                {
                    "report",
                    "published_onions",
                    "harvest_fraction",
                    "naive_ips_needed",
                    "hsdir_count",
                },
            ),
        ],
        ids=["table2", "sec7", "harvest"],
    )
    def test_skipped_fields_stay_out(self, result, fields):
        assert set(encode(result)) == fields

    def test_skipped_field_hints_are_never_resolved(self):
        data = encode(TypeOnlySkip(count=3))
        assert data == {"count": 3}
        assert decode(TypeOnlySkip, data) == TypeOnlySkip(count=3)

    def test_sorted_rows_go_in_key_order(self):
        scan = ScanResults()
        scan.record(ONION_B, 80, ConnectOutcome.OPEN)
        scan.record(ONION_A, 443, ConnectOutcome.OPEN)
        rows = encode(scan)["open_ports"]
        assert [row[:2] for row in rows] == [[ONION_A, 443], [ONION_B, 80]]
        assert list(decode(ScanResults, encode(scan)).open_ports) == [
            (ONION_A, 443),
            (ONION_B, 80),
        ]

    def test_unsorted_rows_keep_insertion_order(self):
        outcome = ClassificationOutcome(
            page_languages={(ONION_B, 80): "en", (ONION_A, 80): "de"}
        )
        assert encode(outcome)["page_languages"] == [
            [ONION_B, 80, "en"],
            [ONION_A, 80, "de"],
        ]


class TestStrictDecoder:
    """Every rejection is a ReproError naming the dotted path."""

    def series_data(self, **changes):
        data = encode(RequestTimeSeries(start=0, bucket_seconds=60, counts=[1, 2]))
        data.update(changes)
        return data

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"bucket_seconds": "60"},
                r"request-timeseries\.bucket_seconds must be int, got str",
            ),
            (
                {"bucket_seconds": True},
                r"request-timeseries\.bucket_seconds must be int, got bool",
            ),
            ({"counts": [1, False]}, r"request-timeseries\.counts\[1\] must be int, got bool"),
            ({"counts": "12"}, r"request-timeseries\.counts is unreadable: expected a list"),
        ],
        ids=["str-in-int", "bool-in-int", "bool-in-int-list", "str-for-list"],
    )
    def test_primitive_types_checked(self, changes, message):
        with pytest.raises(ReproError, match=message):
            decode(RequestTimeSeries, self.series_data(**changes))

    def test_bool_is_not_a_number(self):
        data = encode(ExperimentReport("x", rows=[ComparisonRow("a", None, 1)]))
        data["rows"][0]["measured"] = True
        with pytest.raises(
            ReproError, match=r"experiment-report\.rows\[0\]\.measured must be int or float"
        ):
            decode(ExperimentReport, data)

    def test_non_list_in_set_field_rejected(self):
        data = encode(ScanResults(descriptor_onions={ONION_A}))
        data["descriptor_onions"] = ONION_A
        with pytest.raises(
            ReproError,
            match=r"scan-results\.descriptor_onions is unreadable: expected a list, got str",
        ):
            decode(ScanResults, data)

    @pytest.mark.parametrize(
        "cls, artifact, path, value",
        [
            (CrawlResults, make_crawl(), ("pages", 0), "page"),
            (CrawlResults, make_crawl(), ("failures",), [0, 0, 0, 0]),
            (Table2Result, Table2Result(ranking=PopularityRanking()), ("ranking",), None),
        ],
        ids=["list-item", "field", "nested-artifact"],
    )
    def test_non_object_nested_dataclass_rejected(self, cls, artifact, path, value):
        data = encode(artifact)
        dig(data, path[:-1])[path[-1]] = value
        where = getattr(cls, "KIND", cls.__name__) + "".join(
            f"[{step}]" if isinstance(step, int) else f".{step}" for step in path
        )
        with pytest.raises(
            ReproError, match=re.escape(f"{where} is unreadable: expected an object")
        ):
            decode(cls, data)

    def test_unknown_enum_value_names_the_path(self):
        data = encode(make_crawl())
        data["pages"][0]["kind"] = "gopher"
        with pytest.raises(
            ReproError, match=r"crawl-results\.pages\[0\]\.kind is not a PageKind value"
        ):
            decode(CrawlResults, data)

    def test_short_row_names_the_path(self):
        scan = ScanResults()
        scan.record(ONION_A, 80, ConnectOutcome.OPEN)
        data = encode(scan)
        data["open_ports"][0].pop()
        with pytest.raises(
            ReproError, match=r"scan-results\.open_ports\[0\] has 2 items, expected 3"
        ):
            decode(ScanResults, data)

    @pytest.mark.parametrize(
        "cls, artifact, path",
        [
            (ExperimentReport, ExperimentReport("x"), ("notes",)),
            (
                PopularityRanking,
                PopularityRanking(rows=[RankedService(1, 5, ONION_A)]),
                ("rows", 0, "description"),
            ),
            (CrawlResults, make_crawl(), ("pages", 0, "attempts")),
        ],
        ids=["notes", "description", "attempts"],
    )
    def test_once_optional_fields_are_required(self, cls, artifact, path):
        data = encode(artifact)
        del dig(data, path[:-1])[path[-1]]
        with pytest.raises(ReproError, match=f"missing required field {path[-1]!r}"):
            decode(cls, data)



def make_manifest():
    return CompletenessManifest(
        stages=[StageStatus("scan", STAGE_COMPLETE, sim_seconds=5)],
        crashes=[CrashEvent("stage:scan:exit", 1)],
        quarantined_items=[{"index": 2, "error": "E: x", "retried": None}],
        degraded=True,
        crash_plan={"name": "custom", "seed": 0, "rules": ["a@1"], "on": False},
    )


class TestBoolAndAny:
    """``bool`` is a primitive of its own; ``Any`` is JSON passed through."""

    def test_bool_field_rejects_an_int(self):
        data = encode(make_manifest())
        data["degraded"] = 1
        with pytest.raises(
            ReproError, match=r"completeness-manifest\.degraded must be bool, got int"
        ):
            decode(CompletenessManifest, data)

    def test_int_field_still_rejects_true(self):
        data = encode(make_manifest())
        data["restarts_used"] = True
        with pytest.raises(
            ReproError,
            match=r"completeness-manifest\.restarts_used must be int, got bool",
        ):
            decode(CompletenessManifest, data)

    def test_any_values_pass_through_unchanged(self):
        manifest = make_manifest()
        data = encode(manifest)
        assert data["crash_plan"] == manifest.crash_plan
        assert data["crash_plan"]["rules"] is manifest.crash_plan["rules"]
        assert data["quarantined_items"] == manifest.quarantined_items
        again = decode(CompletenessManifest, json.loads(json.dumps(data)))
        assert again.crash_plan == manifest.crash_plan
        assert again.quarantined_items == manifest.quarantined_items
        assert encode(again) == data


class TestManifestDecoding:
    """A completeness manifest decodes strictly, like every artifact."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"kind": "something-else"}, "expected artifact kind"),
            ({"schema": 99}, "newer than this build"),
            ({"stages": [{"status": "complete"}]}, r"stages\[0\] is missing .* 'name'"),
        ],
        ids=["wrong-kind", "newer-schema", "malformed-stage"],
    )
    def test_rejected(self, changes, message):
        data = {**encode(make_manifest()), **changes}
        with pytest.raises(ReproError, match=message):
            decode(CompletenessManifest, data)


# -- round-trip property ---------------------------------------------------- #

onions = st.text("abcdefghijklmnopqrstuvwxyz234567", min_size=16, max_size=16).map(
    lambda name: name + ".onion"
)
counts = st.integers(min_value=0, max_value=2**40)
numbers = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
short_lists = dict(max_size=5)
taxonomies = st.builds(
    FailureTaxonomy,
    transient_recovered=counts,
    retries_exhausted=counts,
    permanent=counts,
    retry_attempts=counts,
)
destinations = st.tuples(onions, st.integers(min_value=1, max_value=65535))

ARTIFACTS = {
    ExperimentReport: st.builds(
        ExperimentReport,
        experiment=st.text(),
        rows=st.lists(
            st.builds(
                ComparisonRow,
                label=st.text(),
                paper=st.one_of(st.none(), numbers),
                measured=numbers,
            ),
            **short_lists,
        ),
        notes=st.lists(st.text(), **short_lists),
    ),
    PopularityRanking: st.builds(
        PopularityRanking,
        rows=st.lists(
            st.builds(
                RankedService,
                rank=counts,
                requests=counts,
                onion=onions,
                description=st.text(),
            ),
            **short_lists,
        ),
    ),
    ScanResults: st.builds(
        ScanResults,
        scanned_onions=counts,
        descriptor_onions=st.sets(onions, **short_lists),
        reachable_onions=st.sets(onions, **short_lists),
        open_ports=st.dictionaries(
            destinations, st.sampled_from(ConnectOutcome), **short_lists
        ),
        timeouts=counts,
        probes_answered=counts,
        failures=taxonomies,
        descriptor_refetches=counts,
    ),
    CrawlResults: st.builds(
        CrawlResults,
        pages=st.lists(
            st.builds(
                FetchedPage,
                onion=onions,
                port=st.integers(min_value=1, max_value=65535),
                scheme=st.sampled_from(["http", "https"]),
                kind=st.sampled_from(PageKind),
                status=st.integers(min_value=0, max_value=599),
                text=st.text(),
                error=st.text(),
                attempts=st.integers(min_value=1, max_value=9),
            ),
            **short_lists,
        ),
        tried=counts,
        open_at_crawl=counts,
        connected=counts,
        failures=taxonomies,
    ),
    ClassificationOutcome: st.builds(
        ClassificationOutcome,
        language_counts=st.dictionaries(st.text(), counts, **short_lists),
        topic_counts=st.dictionaries(st.text(), counts, **short_lists),
        torhost_default_count=counts,
        english_pages=counts,
        classified_pages=counts,
        page_languages=st.dictionaries(destinations, st.text(), **short_lists),
        page_topics=st.dictionaries(destinations, st.text(), **short_lists),
    ),
}


def encoded_fields(data, path=()):
    """(path, name) of each field of an encoding and its nested dataclasses.

    Covers the top level, the first row or page, and the failure taxonomy;
    mapping fields encode as objects too, but their keys are data.
    """
    for name in data:
        if name not in ("schema", "kind"):
            yield path, name
    for name in ("rows", "pages"):
        if data.get(name):
            yield from encoded_fields(data[name][0], path + (name, 0))
    if isinstance(data.get("failures"), dict):
        yield from encoded_fields(data["failures"], path + ("failures",))


@pytest.mark.parametrize("cls", list(ARTIFACTS), ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_json_round_trip_reproduces_the_encoding(cls, data):
    artifact = data.draw(ARTIFACTS[cls])
    encoded = encode(artifact)
    clone = decode(cls, json.loads(json.dumps(encoded)))
    assert encode(clone) == encoded
    assert clone == artifact


@pytest.mark.parametrize("cls", list(ARTIFACTS), ids=lambda cls: cls.__name__)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_encoded_field_is_required(cls, data):
    encoded = encode(data.draw(ARTIFACTS[cls]))
    for path, name in list(encoded_fields(encoded)):
        damaged = json.loads(json.dumps(encoded))
        del dig(damaged, path)[name]
        with pytest.raises(ReproError, match=f"missing required field {name!r}"):
            decode(cls, damaged)
