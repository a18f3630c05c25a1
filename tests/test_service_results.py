"""The results layer: view builders over synthetic stage fixtures."""

from repro.experiments.pipeline import ClassificationOutcome
from repro.experiments.table2_popularity import Table2Result
from repro.net.endpoint import ConnectOutcome
from repro.popularity.ranking import PopularityRanking
from repro.scan.results import ScanResults
from repro.service import VIEW_KINDS, build_views, check_views, dossier_envelope
from repro.store import digest_of
from repro.worldbuild import EpochWorld

ALPHA = "a" * 16
BRAVO = "b" * 16
CHARLIE = "c" * 16


def make_scan():
    scan = ScanResults(scanned_onions=3)
    scan.descriptor_onions.update({ALPHA, BRAVO, CHARLIE})
    scan.record(ALPHA, 80, ConnectOutcome.OPEN)
    scan.record(ALPHA, 22, ConnectOutcome.OPEN)
    scan.record(BRAVO, 55080, ConnectOutcome.ABNORMAL_ERROR)
    scan.record(BRAVO, 4321, ConnectOutcome.OPEN)
    scan.record(CHARLIE, 443, ConnectOutcome.TIMEOUT)
    return scan


def make_classification():
    outcome = ClassificationOutcome()
    outcome.language_counts = {"english": 2, "german": 1}
    outcome.topic_counts = {"drugs": 2, "politics": 1}
    outcome.classified_pages = 3
    outcome.english_pages = 2
    outcome.torhost_default_count = 1
    outcome.page_topics = {(ALPHA, 80): "drugs", (BRAVO, 4321): "politics"}
    return outcome


def make_table2(counts=None):
    counts = counts if counts is not None else {ALPHA: 40, BRAVO: 15}
    ranking = PopularityRanking.from_counts(counts, {ALPHA: "market"})
    return Table2Result(
        ranking=ranking,
        total_requests_observed=sum(counts.values()),
        unique_ids_observed=len(counts),
    )


def make_world(epoch=0):
    return EpochWorld(epoch=epoch, seed=11, scale=0.02)


def views_for(epoch=0, counts=None, prev_views=None):
    return build_views(
        make_world(epoch),
        scan=make_scan(),
        classification=make_classification(),
        table2=make_table2(counts),
        prev_views=prev_views,
    )


class TestBuildViews:
    def test_materializes_every_kind_and_passes_strict_decode(self):
        views = views_for()
        assert set(views) == set(VIEW_KINDS)
        assert check_views(views) == views

    def test_ranking_rows_carry_table2_fields(self):
        body = views_for()["ranking"]["body"]
        assert body["rows"][0] == {
            "rank": 1,
            "requests": 40,
            "onion": ALPHA,
            "description": "market",
        }
        assert body["total_requests_observed"] == 55
        assert body["unique_ids_observed"] == 2

    def test_ports_view_bins_and_totals(self):
        body = views_for()["ports"]["body"]
        assert body["counts"] == {
            "22-ssh": 1,
            "55080-Skynet": 1,
            "80-http": 1,
            "other": 1,
        }
        assert body["unique_ports"] == 4
        assert body["total_open"] == 4
        assert body["scanned_onions"] == 3
        assert body["descriptor_onions"] == 3
        # CHARLIE only timed out, so it never became reachable.
        assert body["reachable_onions"] == 2

    def test_topics_view_sorts_counts_and_shares(self):
        body = views_for()["topics"]["body"]
        assert list(body["topic_counts"]) == ["drugs", "politics"]
        assert body["topic_shares_percent"]["politics"] == 100.0 / 3
        assert body["language_counts"] == {"english": 2, "german": 1}
        assert body["classified_pages"] == 3
        assert body["english_pages"] == 2
        assert body["torhost_default_count"] == 1

    def test_dossiers_join_scan_classifier_and_ranking(self):
        body = views_for()["dossiers"]["body"]
        assert body["total"] == 3
        assert list(body["onions"]) == sorted([ALPHA, BRAVO, CHARLIE])
        alpha = body["onions"][ALPHA]
        assert alpha == {
            "descriptor": True,
            "reachable": True,
            "open_ports": [22, 80],
            "topics": [[80, "drugs"]],
            "rank": 1,
            "requests": 40,
            "description": "market",
        }
        charlie = body["onions"][CHARLIE]
        assert charlie["reachable"] is False
        assert charlie["open_ports"] == []
        assert charlie["rank"] is None

    def test_digest_is_stable_across_rebuilds(self):
        first = views_for()
        second = views_for()
        for kind in VIEW_KINDS:
            assert digest_of(first[kind]) == digest_of(second[kind])


class TestDeltaView:
    def test_epoch_zero_delta_is_empty_with_null_prev(self):
        body = views_for()["delta"]["body"]
        assert body == {
            "prev_epoch": None,
            "new_onions": [],
            "vanished_onions": [],
            "rank_moves": {},
            "port_count_changes": {},
            "topic_count_changes": {},
        }

    def test_tracks_rank_moves_and_membership_changes(self):
        previous = views_for(epoch=0, counts={ALPHA: 40, BRAVO: 15})
        current = views_for(
            epoch=1, counts={BRAVO: 50, CHARLIE: 10}, prev_views=previous
        )
        body = current["delta"]["body"]
        assert body["prev_epoch"] == 0
        assert body["new_onions"] == [CHARLIE]
        assert body["vanished_onions"] == [ALPHA]
        assert body["rank_moves"] == {BRAVO: {"prev_rank": 2, "rank": 1}}
        # The synthetic scan/classification fixtures are identical across
        # the two epochs, so only the ranking moved.
        assert body["port_count_changes"] == {}
        assert body["topic_count_changes"] == {}


class TestDossierEnvelope:
    def test_wraps_single_onion_with_epoch_identity(self):
        views = views_for()
        envelope = dossier_envelope(views, ALPHA)
        assert envelope["kind"] == "dossier"
        assert envelope["onion"] == ALPHA
        assert envelope["epoch"] == 0
        assert envelope["body"]["rank"] == 1

    def test_unknown_onion_returns_none(self):
        assert dossier_envelope(views_for(), "z" * 16) is None
