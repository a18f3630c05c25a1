"""Artifact (de)serialisation: repro.codec encodings and repro.io files."""

import pytest

from repro.analysis.report import ExperimentReport
from repro.codec import decode, encode
from repro.crawl.crawler import CrawlResults
from repro.errors import ReproError
from repro.experiments.pipeline import ClassificationOutcome
from repro.io import load_json, save_json
from repro.popularity.ranking import PopularityRanking
from repro.popularity.timeseries import RequestTimeSeries
from repro.scan.results import PortDistribution, ScanResults
from repro.scan.tls import CertificateAnalysis


def make_report():
    report = ExperimentReport(experiment="x")
    report.add("alpha", 100, 103)
    report.add("beta", None, 7)
    report.note("a note")
    return report


class TestReportRoundtrip:
    def test_roundtrip_preserves_everything(self):
        report = make_report()
        clone = decode(ExperimentReport, encode(report))
        assert clone.experiment == report.experiment
        assert [(r.label, r.paper, r.measured) for r in clone.rows] == [
            (r.label, r.paper, r.measured) for r in report.rows
        ]
        assert clone.notes == report.notes
        assert clone.max_error() == report.max_error()

    def test_kind_mismatch_rejected(self):
        data = encode(make_report())
        data["kind"] = "something-else"
        with pytest.raises(ReproError):
            decode(ExperimentReport, data)

    def test_schema_mismatch_rejected(self):
        data = encode(make_report())
        data["schema"] = 999
        with pytest.raises(ReproError):
            decode(ExperimentReport, data)


class TestRankingRoundtrip:
    def test_roundtrip(self):
        ranking = PopularityRanking.from_counts(
            {"aa" * 8 + ".onion": 50, "bb" * 8 + ".onion": 99},
            {"bb" * 8 + ".onion": "Goldnet"},
        )
        clone = decode(PopularityRanking, encode(ranking))
        assert len(clone) == 2
        assert clone.rank_of("bb" * 8 + ".onion") == 1
        assert clone.row_for("bb" * 8 + ".onion").description == "Goldnet"


class TestDistributionRoundtrip:
    def test_roundtrip(self):
        distribution = PortDistribution(
            counts={"80-http": 5, "other": 2}, unique_ports=4, total_open=7
        )
        clone = decode(PortDistribution, encode(distribution))
        assert clone.counts == distribution.counts
        assert clone.unique_ports == 4
        assert clone.total_open == 7
        assert clone.as_rows()[-1] == ("other", 2)


class TestScanRoundtrip:
    def test_roundtrip_is_exact(self, small_pipeline):
        scan = small_pipeline.scan()
        data = encode(scan)
        clone = decode(ScanResults, data)
        assert clone.scanned_onions == scan.scanned_onions
        assert clone.descriptor_onions == scan.descriptor_onions
        assert clone.reachable_onions == scan.reachable_onions
        assert clone.open_ports == scan.open_ports
        assert clone.timeouts == scan.timeouts
        assert clone.probes_answered == scan.probes_answered
        # Re-encoding the clone reproduces the encoding byte-for-byte —
        # the invariant repro.store's content addresses rest on.
        assert encode(clone) == data


class TestCertificatesRoundtrip:
    def test_roundtrip_is_exact(self, small_pipeline):
        analysis = small_pipeline.certificates()
        data = encode(analysis)
        clone = decode(CertificateAnalysis, data)
        assert clone.total_certificates == analysis.total_certificates
        assert clone.self_signed_mismatch == analysis.self_signed_mismatch
        assert clone.dominant_cn == analysis.dominant_cn
        assert clone.cn_histogram == analysis.cn_histogram
        assert encode(clone) == data


class TestCrawlRoundtrip:
    def test_roundtrip_is_exact(self, small_pipeline):
        crawl = small_pipeline.crawl()
        data = encode(crawl)
        clone = decode(CrawlResults, data)
        assert clone.pages == crawl.pages
        assert clone.tried == crawl.tried
        assert clone.open_at_crawl == crawl.open_at_crawl
        assert clone.connected == crawl.connected
        assert encode(clone) == data

    def test_destination_index_rebuilt(self, small_pipeline):
        crawl = small_pipeline.crawl()
        clone = decode(CrawlResults, encode(crawl))
        page = crawl.pages[0]
        assert clone._page_index[page.destination] == page


class TestClassificationRoundtrip:
    def test_roundtrip_is_exact(self, small_pipeline):
        outcome = small_pipeline.classify()
        data = encode(outcome)
        clone = decode(ClassificationOutcome, data)
        assert clone.language_counts == outcome.language_counts
        assert clone.topic_counts == outcome.topic_counts
        assert clone.classified_pages == outcome.classified_pages
        # Insertion order carries ranking-relevant tie-breaks; it must
        # survive the trip, not just the mapping contents.
        assert list(clone.page_topics) == list(outcome.page_topics)
        assert encode(clone) == data


class TestTimeseriesRoundtrip:
    def test_roundtrip_is_exact(self):
        series = RequestTimeSeries(start=100, bucket_seconds=3600, counts=[1, 0, 7])
        data = encode(series)
        clone = decode(RequestTimeSeries, data)
        assert clone.start == 100
        assert clone.bucket_seconds == 3600
        assert clone.counts == [1, 0, 7]
        assert encode(clone) == data


class TestStrictLoaders:
    """Loaders fail loudly at the boundary, never with a bare KeyError."""

    @pytest.mark.parametrize(
        "artifact",
        [make_report(), RequestTimeSeries(start=0, bucket_seconds=60, counts=[1])],
        ids=["ExperimentReport", "RequestTimeSeries"],
    )
    def test_missing_field_raises_repro_error(self, artifact):
        data = encode(artifact)
        doomed = next(k for k in data if k not in ("schema", "kind"))
        del data[doomed]
        with pytest.raises(ReproError, match="missing required field"):
            decode(type(artifact), data)

    def test_missing_row_field_names_the_row(self):
        data = encode(make_report())
        del data["rows"][0]["measured"]
        with pytest.raises(
            ReproError,
            match=r"experiment-report\.rows\[0\] is missing required field 'measured'",
        ):
            decode(ExperimentReport, data)

    def test_newer_schema_rejected_with_upgrade_hint(self):
        data = encode(make_report())
        data["schema"] = 2
        with pytest.raises(ReproError, match="newer than this build"):
            decode(ExperimentReport, data)

    def test_older_schema_rejected(self):
        data = encode(make_report())
        data["schema"] = 0
        with pytest.raises(ReproError, match="unsupported schema"):
            decode(ExperimentReport, data)

    def test_non_integer_schema_rejected(self):
        data = encode(make_report())
        data["schema"] = "1"
        with pytest.raises(ReproError, match="no integer schema"):
            decode(ExperimentReport, data)

    def test_wrong_kind_rejected(self):
        data = encode(RequestTimeSeries(start=0, bucket_seconds=60, counts=[]))
        with pytest.raises(ReproError, match="expected artifact kind"):
            decode(ScanResults, data)

    def test_non_mapping_fragment_rejected(self):
        data = encode(
            decode(
                CrawlResults,
                {
                    "schema": 1,
                    "kind": "crawl-results",
                    "pages": [],
                    "tried": 0,
                    "open_at_crawl": 0,
                    "connected": 0,
                    "failures": {
                        "transient_recovered": 0,
                        "retries_exhausted": 0,
                        "permanent": 0,
                        "retry_attempts": 0,
                    },
                },
            )
        )
        data["failures"] = None
        with pytest.raises(ReproError, match="unreadable"):
            decode(CrawlResults, data)


class TestFiles:
    def test_save_and_load(self, tmp_path):
        report = make_report()
        path = tmp_path / "sub" / "report.json"
        save_json(encode(report), path)
        assert decode(ExperimentReport, load_json(path)).experiment == "x"
