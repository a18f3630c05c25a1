"""The query API: routes, conditional caching, and the determinism matrix."""

import collections
import json
import sys
import threading

import pytest

from repro.obs.scope import Observer
from repro.service import (
    SCHEMA_VERSION,
    VIEW_KINDS,
    InProcessClient,
    ServiceRouter,
)
from repro.service import api
from repro.service.api import _encode, etag_of
from repro.service.results import dossier_envelope

from tests.conftest import make_service_controller

#: The query surface the determinism matrix pins, one path per view kind.
VIEW_PATHS = tuple(f"/v1/epochs/0/{kind}" for kind in VIEW_KINDS)

#: workers × fault-profile cells of the determinism matrix (satellite:
#: byte-identical body and ETag at workers 1/2/8, clean and faulted).
WORKER_COUNTS = (1, 2, 8)
FAULT_PROFILES = ("none", "moderate")


@pytest.fixture(scope="module")
def matrix_responses(tmp_path_factory):
    """Every (profile, workers) cell's responses over a fresh store."""
    responses = {}
    for profile in FAULT_PROFILES:
        for workers in WORKER_COUNTS:
            root = tmp_path_factory.mktemp(f"api-{profile}-{workers}")
            controller = make_service_controller(
                root,
                epochs=1,
                workers=workers,
                fault_profile=profile,
                crash_profile="none",
            )
            controller.run()
            client = InProcessClient(ServiceRouter(controller.records))
            responses[(profile, workers)] = {
                path: client.get(path) for path in VIEW_PATHS
            }
    return responses


class TestDeterminismMatrix:
    @pytest.mark.parametrize("profile", FAULT_PROFILES)
    @pytest.mark.parametrize("path", VIEW_PATHS)
    def test_body_and_etag_identical_across_worker_counts(
        self, matrix_responses, profile, path
    ):
        baseline = matrix_responses[(profile, WORKER_COUNTS[0])][path]
        assert baseline.status == 200
        for workers in WORKER_COUNTS[1:]:
            response = matrix_responses[(profile, workers)][path]
            assert response.body == baseline.body, (
                f"{path} body diverged at workers={workers} "
                f"under profile {profile!r}"
            )
            assert response.etag == baseline.etag

    @pytest.mark.parametrize("path", VIEW_PATHS)
    def test_etag_is_the_quoted_content_digest(self, matrix_responses, path):
        response = matrix_responses[("none", 1)][path]
        assert response.etag.startswith('"sha256:')
        assert response.etag.endswith('"')


@pytest.fixture(scope="module")
def client(service_controller):
    router = ServiceRouter(
        service_controller.records, observer=Observer(name="api-test")
    )
    return InProcessClient(router)


class TestRoutes:
    def test_healthz_reports_epoch_count(self, client):
        response = client.get("/healthz")
        assert response.status == 200
        assert response.json() == {
            "schema": SCHEMA_VERSION,
            "kind": "health",
            "status": "ok",
            "epochs": 3,
        }

    def test_epoch_listing_carries_run_ids_and_digests(self, client):
        document = client.get("/v1/epochs").json()
        assert document["kind"] == "epochs"
        rows = document["epochs"]
        assert [row["epoch"] for row in rows] == [0, 1, 2]
        assert rows[0]["run_id"] == "epoch-000000"
        assert rows[0]["complete"] is True
        assert set(rows[0]["views"]) == set(VIEW_KINDS)

    def test_latest_selector_resolves_newest_epoch(self, client):
        latest = client.get("/v1/epochs/latest/ranking")
        explicit = client.get("/v1/epochs/2/ranking")
        assert latest.body == explicit.body
        assert latest.etag == explicit.etag

    def test_view_response_is_the_stored_envelope(
        self, client, service_controller
    ):
        response = client.get("/v1/epochs/1/topics")
        assert response.json() == service_controller.records[1].views["topics"]

    def test_query_string_and_trailing_slash_are_ignored(self, client):
        plain = client.get("/v1/epochs/0/ports")
        decorated = client.get("/v1/epochs/0/ports/?verbose=1")
        assert decorated.body == plain.body
        assert decorated.etag == plain.etag

    def test_dossier_route_serves_single_onions(
        self, client, service_controller
    ):
        views = service_controller.records[0].views
        onion = next(iter(views["dossiers"]["body"]["onions"]))
        response = client.get(f"/v1/epochs/0/dossier/{onion}")
        assert response.status == 200
        document = response.json()
        assert document["kind"] == "dossier"
        assert document["onion"] == onion

    def test_metrics_route_exports_the_observer_snapshot(self, client):
        response = client.get("/v1/metrics")
        assert response.status == 200
        snapshot = json.loads(response.body.decode("utf-8"))
        assert set(snapshot) >= {"metrics", "events", "dropped_events"}
        names = {entry["name"] for entry in snapshot["metrics"]}
        assert "service_requests_total" in names


class TestConditionalCaching:
    def test_matching_etag_turns_into_304_with_empty_body(self, client):
        first = client.get("/v1/epochs/0/ranking")
        assert first.status == 200
        second = client.get_conditional("/v1/epochs/0/ranking", first.etag)
        assert second.status == 304
        assert second.body == b""
        assert second.etag == first.etag

    def test_stale_etag_returns_full_body(self, client):
        response = client.get_conditional(
            "/v1/epochs/0/ranking", '"sha256:stale"'
        )
        assert response.status == 200
        assert response.body

    def test_cache_hits_are_counted_per_route(self, service_controller):
        router = ServiceRouter(
            service_controller.records, observer=Observer(name="cache-test")
        )
        local = InProcessClient(router)
        etag = local.get("/v1/epochs/0/ranking").etag
        local.get_conditional("/v1/epochs/0/ranking", etag)
        hits = [
            (dict(labels), metric.value)
            for name, labels, metric in router.observer.registry.items()
            if name == "service_cache_hits_total"
        ]
        assert hits == [({"route": "view:ranking"}, 1)]


class TestErrorTaxonomy:
    def test_unknown_epoch_is_a_schema_stamped_404(self, client):
        response = client.get("/v1/epochs/99/ranking")
        assert response.status == 404
        document = response.json()
        assert document["kind"] == "error"
        assert document["status"] == 404
        assert document["error"]["type"] == "ServiceError"

    def test_unknown_route_is_404(self, client):
        assert client.get("/v1/nonsense").status == 404

    def test_unknown_view_kind_is_404(self, client):
        assert client.get("/v1/epochs/0/sparklines").status == 404

    def test_unknown_dossier_onion_is_404(self, client):
        response = client.get("/v1/epochs/0/dossier/" + "z" * 16)
        assert response.status == 404

    def test_non_get_method_is_405(self, service_controller):
        router = ServiceRouter(service_controller.records)
        response = router.handle("POST", "/v1/epochs")
        assert response.status == 405
        body = json.loads(response.body.decode("utf-8"))
        assert body["error"]["type"] == "ServiceError"


def document_paths(records):
    """Every path that serves a document, with a fresh build of it.

    The builds mirror the router's own: a view is the record's stored
    envelope, a dossier is re-wrapped from the dossiers view, and the
    listings are assembled from the records.
    """
    documents = {
        "/healthz": {
            "schema": SCHEMA_VERSION,
            "kind": "health",
            "status": "ok",
            "epochs": len(records),
        },
        "/v1/epochs": {
            "schema": SCHEMA_VERSION,
            "kind": "epochs",
            "epochs": [record.summary() for record in records],
        },
    }
    for record in records:
        selectors = [str(record.epoch)]
        if record is records[-1]:
            selectors.append("latest")
        for selector in selectors:
            for kind in VIEW_KINDS:
                path = f"/v1/epochs/{selector}/{kind}"
                documents[path] = record.views[kind]
        for onion in record.views["dossiers"]["body"]["onions"]:
            path = f"/v1/epochs/{record.epoch}/dossier/{onion}"
            documents[path] = dossier_envelope(record.views, onion)
    return documents


class TestRenderOnce:
    """Each served document is digested and encoded once per router."""

    @pytest.fixture(scope="class")
    def documents(self, service_controller):
        return document_paths(service_controller.records)

    @pytest.mark.parametrize("latest_first", [True, False])
    def test_every_response_is_the_fresh_rendering(
        self, service_controller, documents, latest_first
    ):
        client = InProcessClient(ServiceRouter(service_controller.records))
        paths = sorted(
            documents, key=lambda path: ("latest" in path) != latest_first
        )
        for path in paths + paths:
            document = documents[path]
            response = client.get(path)
            assert response.status == 200, path
            assert response.body == _encode(document), path
            assert response.etag == etag_of(document), path
            conditional = client.get_conditional(path, response.etag)
            assert conditional.status == 304, path
            assert conditional.body == b""
            assert conditional.etag == response.etag

    def test_each_document_is_encoded_and_digested_once(
        self, service_controller, documents, monkeypatch
    ):
        encoded, digested = collections.Counter(), collections.Counter()

        def spy(counter, real):
            def wrapper(document):
                counter[json.dumps(document, sort_keys=True)] += 1
                return real(document)

            return wrapper

        monkeypatch.setattr(api, "_encode", spy(encoded, api._encode))
        monkeypatch.setattr(api, "etag_of", spy(digested, api.etag_of))
        records = service_controller.records
        paths = ["/healthz", "/v1/epochs"]
        for selector in ("0", "1", "latest", "2"):
            paths += [f"/v1/epochs/{selector}/{kind}" for kind in VIEW_KINDS]
        paths += sorted(p for p in documents if "/dossier/" in p)[:3]
        assert len(paths) == 25
        client = InProcessClient(ServiceRouter(records))
        etags = {}
        for index in range(50):
            path = paths[index % len(paths)]
            if index % 3 == 2 and path in etags:
                response = client.get_conditional(path, etags[path])
                assert response.status == 304
            else:
                response = client.get(path)
                assert response.status == 200
            etags[path] = response.etag
        served = {json.dumps(documents[p], sort_keys=True) for p in paths}
        assert set(encoded) == set(digested) == served
        assert set(encoded.values()) == set(digested.values()) == {1}

    def test_concurrent_first_requests_serve_the_same_bytes(
        self, service_controller, documents
    ):
        threads = 8
        paths = [path for path in documents if "/dossier/" not in path]
        paths += sorted(path for path in documents if "/dossier/" in path)[:20]
        expected = {
            path: (_encode(documents[path]), etag_of(documents[path]))
            for path in paths
        }
        router = ServiceRouter(service_controller.records)
        start = threading.Barrier(threads)
        wrong = []

        def reader(offset):
            start.wait(timeout=10)
            for path in paths[offset:] + paths[:offset]:
                response = router.handle("GET", path)
                served = (response.body, response.headers.get("ETag"))
                if served != expected[path]:
                    wrong.append(path)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=reader, args=(index * 3,))
                for index in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert wrong == []

    def test_metrics_are_rendered_per_request(self, service_controller):
        router = ServiceRouter(
            service_controller.records, observer=Observer(name="live-test")
        )
        client = InProcessClient(router)

        def requests_total():
            snapshot = client.get("/v1/metrics").json()
            return sum(
                entry["value"]
                for entry in snapshot["metrics"]
                if entry["name"] == "service_requests_total"
            )

        first = requests_total()
        client.get("/healthz")
        assert requests_total() == first + 2

    def test_unknown_onion_is_not_memoised(self, service_controller):
        router = ServiceRouter(service_controller.records)
        for _ in range(2):
            response = router.handle("GET", "/v1/epochs/0/dossier/" + "z" * 16)
            assert response.status == 404
        assert router._rendered == {}


class TestEpochSelector:
    @pytest.mark.parametrize("selector", ["²", "٠", "1²", "0x1", "-1"])
    def test_non_ascii_digit_selectors_are_404(
        self, service_controller, selector
    ):
        router = ServiceRouter(service_controller.records)
        response = router.handle("GET", f"/v1/epochs/{selector}/ranking")
        assert response.status == 404
        document = json.loads(response.body.decode("utf-8"))
        assert document["kind"] == "error"
        assert document["error"]["type"] == "ServiceError"
