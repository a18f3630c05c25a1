"""The HTTP front-end: a real server on an ephemeral port.

tests/ is exempt from REP015, so this file may use ``http.client``
directly; production code outside ``repro/service`` may not.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.obs.scope import Observer
from repro.service import ServiceRouter, serve
from repro.service.http import _ServiceRequestHandler


@pytest.fixture(scope="module")
def live_server(service_controller):
    """A serving ServiceHTTPServer on port 0, torn down after the module."""
    router = ServiceRouter(
        service_controller.records, observer=Observer(name="http-test")
    )
    server = serve(router, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def fetch(server, path, headers=None):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", path, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def raw_exchange(server, payload):
    """Send raw bytes on one connection; read until the server closes."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestLiveServer:
    def test_healthz_over_the_wire(self, live_server):
        status, headers, body = fetch(live_server, "/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json; charset=utf-8"
        document = json.loads(body.decode("utf-8"))
        assert document["status"] == "ok"
        assert document["epochs"] == 3

    def test_response_framing_is_pinned(self, live_server):
        _status, headers, _body = fetch(live_server, "/healthz")
        assert headers["Server"] == "repro-service"
        assert headers["Date"] == "Thu, 01 Jan 1970 00:00:00 GMT"

    def test_ranking_200_then_304_on_conditional_refetch(self, live_server):
        status, headers, body = fetch(live_server, "/v1/epochs/0/ranking")
        assert status == 200
        assert body
        etag = headers["ETag"]
        assert etag.startswith('"sha256:')

        status, headers, body = fetch(
            live_server,
            "/v1/epochs/0/ranking",
            headers={"If-None-Match": etag},
        )
        assert status == 304
        assert body == b""
        assert headers["ETag"] == etag

    def test_wire_body_matches_in_process_router(
        self, live_server, service_controller
    ):
        _status, _headers, body = fetch(live_server, "/v1/epochs/latest/delta")
        in_process = live_server.router.handle(
            "GET", "/v1/epochs/latest/delta"
        )
        assert body == in_process.body

    def test_concurrent_requests_all_succeed(self, live_server):
        results = []
        lock = threading.Lock()

        def worker():
            status, _headers, _body = fetch(live_server, "/v1/epochs")
            with lock:
                results.append(status)

        threads = [threading.Thread(target=worker) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert results == [200] * 12

    def test_unread_body_is_not_parsed_as_the_next_request(self, live_server):
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        request = (
            b"POST /v1/epochs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n" % len(smuggled)
        ) + smuggled
        reply = raw_exchange(live_server, request)
        # Exactly one response, then EOF: the body never became a request.
        assert reply.startswith(b"HTTP/1.1 405 ")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close" in reply

    def test_bodyless_gets_keep_the_connection_alive(self, live_server):
        request = (
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        reply = raw_exchange(live_server, request)
        assert reply.count(b"HTTP/1.1 200 ") == 2

    def test_response_bytes_are_exactly_the_framed_router_response(
        self, live_server
    ):
        path = "/v1/epochs/0/ranking"
        expected = live_server.router.handle("GET", path)
        etag = expected.headers["ETag"]

        def framed(status_line, body):
            return (
                status_line + b"\r\n"
                b"Server: repro-service\r\n"
                b"Date: Thu, 01 Jan 1970 00:00:00 GMT\r\n"
                b"ETag: " + etag.encode("ascii") + b"\r\n"
                b"Content-Type: application/json; charset=utf-8\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            ) + body

        request = b"GET " + path.encode("ascii") + b" HTTP/1.1\r\nHost: x\r\n"
        close = b"Connection: close\r\n\r\n"
        reply = raw_exchange(live_server, request + close)
        assert reply == framed(b"HTTP/1.1 200 OK", expected.body)
        conditional = b"If-None-Match: " + etag.encode("ascii") + b"\r\n"
        reply = raw_exchange(live_server, request + conditional + close)
        assert reply == framed(b"HTTP/1.1 304 Not Modified", b"")

    def test_keep_alive_gets_do_not_wait_for_delayed_acks(self, live_server):
        # An 11.5 KB body sent after its head, with Nagle on, waits ~40 ms
        # for the client's delayed ACK of the head on every request.
        host, port = live_server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            started = time.perf_counter()
            for _ in range(30):
                connection.request("GET", "/v1/epochs/0/ranking")
                response = connection.getresponse()
                assert response.status == 200
                assert len(response.read()) > 8192
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.4, f"30 keep-alive GETs took {elapsed:.3f} s"

    def test_raw_non_ascii_digit_selector_gets_a_404(self, live_server):
        reply = raw_exchange(
            live_server,
            b"GET /v1/epochs/\xb2/ranking HTTP/1.1\r\n"
            b"Host: x\r\nConnection: close\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 404 ")
        assert b'"kind": "error"' in reply


def test_idle_connections_release_their_handler_slots(
    service_controller, monkeypatch
):
    # Shorten the handler's idle timeout; a handler without one keeps
    # None, and the ninth request then fails on its client timeout.
    if _ServiceRequestHandler.timeout is not None:
        monkeypatch.setattr(_ServiceRequestHandler, "timeout", 0.5)
    router = ServiceRouter(service_controller.records)
    server = serve(router, port=0, workers=8)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    idle = []
    try:
        host, port = server.server_address[:2]
        idle = [socket.create_connection((host, port)) for _ in range(8)]
        # Let the eight handler threads take every slot before the ninth.
        time.sleep(0.2)
        started = time.perf_counter()
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            response.read()
        finally:
            connection.close()
        assert time.perf_counter() - started < 3.0
    finally:
        for sock in idle:
            sock.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
