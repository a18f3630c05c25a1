"""The HTTP front-end: a real server on an ephemeral port.

tests/ is exempt from REP015, so this file may use ``http.client``
directly; production code outside ``repro/service`` may not.
"""

import http.client
import json
import random
import socket
import string
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs.scope import Observer
from repro.service import ServiceRouter, bind
from repro.service.api import COUNTED_METHODS
from repro.service.http import (
    MAX_HEADERS,
    MAX_LINE,
    ServiceHTTPServer,
    _ServiceRequestHandler,
)


@pytest.fixture(scope="module")
def live_server(service_controller):
    """A serving ServiceHTTPServer on port 0, torn down after the module."""
    router = ServiceRouter(
        service_controller.records, observer=Observer(name="http-test")
    )
    server = bind(router, port=0)
    server.server_activate()
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
    server = bind(router, port=0, workers=8)
    server.server_activate()
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


def test_zero_workers_is_a_config_error(service_controller):
    with pytest.raises(ConfigError):
        ServiceHTTPServer(
            ("127.0.0.1", 0), ServiceRouter(service_controller.records), workers=0
        )


def test_bind_refuses_connects_until_the_listen():
    server = bind(ServiceRouter(), port=0)
    try:
        address = server.server_address[:2]
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5).close()
        server.server_activate()
        socket.create_connection(address, timeout=5).close()
    finally:
        server.server_close()


def split_response(reply, head_only=False):
    """One response off ``reply``: (status, headers, body, what follows)."""
    head, blank, rest = reply.partition(b"\r\n\r\n")
    assert blank, reply[:200]
    status_line, *lines = head.split(b"\r\n")
    assert status_line.startswith(b"HTTP/1.1 ")
    headers = dict(line.split(b": ", 1) for line in lines)
    length = 0 if head_only else int(headers[b"Content-Length"])
    return int(status_line.split(b" ")[1]), headers, rest[:length], rest[length:]


class TestRequestHeads:
    """The handler's own request parsing: caps, malformed heads, keep-alive."""

    MALFORMED = [
        (b"BROKEN\r\n\r\n", 400),
        (b"GET /healthz\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1 extra\r\n\r\n", 400),
        (b"GET /healthz HTTX/1.1\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.\xb2\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nHost: x\r\nNoColonHere\r\n\r\n", 400),
        (b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * MAX_LINE + b"\r\n\r\n", 431),
        (
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-%d: y\r\n" % index for index in range(MAX_HEADERS + 1))
            + b"\r\n",
            431,
        ),
        (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
        (b"GET /healthz HTTP/3.0\r\n\r\n", 505),
    ]

    @pytest.mark.parametrize(
        "request_bytes, status",
        MALFORMED,
        ids=[f"{status}-{index}" for index, (_, status) in enumerate(MALFORMED)],
    )
    def test_malformed_head_gets_a_json_envelope_then_eof(
        self, live_server, request_bytes, status
    ):
        # raw_exchange reads until EOF: a connection left open times out.
        reply = raw_exchange(live_server, request_bytes)
        got, headers, body, rest = split_response(reply)
        assert (got, rest) == (status, b"")
        assert headers[b"Connection"] == b"close"
        assert headers[b"Content-Type"] == b"application/json; charset=utf-8"
        document = json.loads(body)
        assert document["kind"] == "error"
        assert document["status"] == status

    def test_exactly_100_headers_are_accepted(self, live_server):
        request = (
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-%d: y\r\n" % index for index in range(MAX_HEADERS - 1))
            + b"Connection: close\r\n\r\n"
        )
        assert raw_exchange(live_server, request).startswith(b"HTTP/1.1 200 ")

    @pytest.mark.parametrize("extra, status", [(0, 200), (1, 414)])
    def test_request_line_at_the_cap_is_accepted(self, live_server, extra, status):
        prefix, suffix = b"GET /healthz?", b" HTTP/1.1\r\n"
        filler = b"a" * (MAX_LINE - len(prefix) - len(suffix) + extra)
        line = prefix + filler + suffix
        assert len(line) == MAX_LINE + extra
        reply = raw_exchange(live_server, line + b"Connection: close\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 %d " % status)

    def test_pipelined_gets_are_answered_in_order_on_one_connection(
        self, live_server
    ):
        paths = ["/healthz", "/v1/epochs", "/v1/epochs/0/ports"]
        request = b"".join(
            b"GET " + path.encode("ascii") + b" HTTP/1.1\r\nHost: x\r\n\r\n"
            for path in paths[:-1]
        ) + b"GET " + paths[-1].encode("ascii") + (
            b" HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        rest = raw_exchange(live_server, request)
        for path in paths:
            status, _headers, body, rest = split_response(rest)
            assert status == 200
            assert body == live_server.router.handle("GET", path).body
        assert rest == b""

    def test_lower_case_if_none_match_gets_its_304(self, live_server):
        etag = live_server.router.handle("GET", "/v1/epochs/0/ranking").headers["ETag"]
        reply = raw_exchange(
            live_server,
            b"GET /v1/epochs/0/ranking HTTP/1.1\r\nhost: x\r\n"
            b"if-none-match: " + etag.encode("ascii") + b"\r\n"
            b"connection: close\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 304 Not Modified\r\n")

    def test_http_1_0_get_closes_after_its_response(self, live_server):
        reply = raw_exchange(live_server, b"GET /healthz HTTP/1.0\r\n\r\n")
        status, headers, _body, rest = split_response(reply)
        assert (status, rest) == (200, b"")
        assert b"Connection" not in headers

    def test_http_1_0_keep_alive_stays_open(self, live_server):
        reply = raw_exchange(
            live_server,
            b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
            b"GET /healthz HTTP/1.0\r\n\r\n",
        )
        assert reply.count(b"HTTP/1.1 200 ") == 2

    def test_head_gets_a_405_without_a_body(self, live_server):
        reply = raw_exchange(live_server, b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        status, headers, body, rest = split_response(reply, head_only=True)
        assert (status, body, rest) == (405, b"", b"")
        assert int(headers[b"Content-Length"]) > 0
        assert headers[b"Connection"] == b"close"

    @pytest.mark.parametrize("method", [b"OPTIONS", b"PATCH"])
    def test_other_methods_get_the_routers_405(self, live_server, method):
        reply = raw_exchange(live_server, method + b" /healthz HTTP/1.1\r\n\r\n")
        status, _headers, body, rest = split_response(reply)
        assert (status, rest) == (405, b"")
        assert json.loads(body)["kind"] == "error"

    def test_leading_double_slash_collapses(self, live_server):
        reply = raw_exchange(
            live_server, b"GET //healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")

    def test_random_methods_add_at_most_one_metrics_series(self, live_server):
        def method_labels():
            _status, _headers, body = fetch(live_server, "/v1/metrics")
            return {
                entry["labels"]["method"]
                for entry in json.loads(body)["metrics"]
                if entry["name"] == "service_requests_total"
            }

        before = method_labels()
        rng = random.Random(35)
        for _ in range(20):
            method = "".join(rng.choice(string.ascii_uppercase) for _ in range(12))
            reply = raw_exchange(
                live_server, method.encode("ascii") + b" /healthz HTTP/1.1\r\n\r\n"
            )
            assert reply.startswith(b"HTTP/1.1 405 ")
            assert method.encode("ascii") in reply
        after = method_labels()
        assert len(after - before) <= 1
        assert after <= COUNTED_METHODS | {"other"}

    def test_malformed_heads_are_counted_as_errors(self, live_server):
        def errors_400():
            _status, _headers, body = fetch(live_server, "/v1/metrics")
            return sum(
                entry["value"]
                for entry in json.loads(body)["metrics"]
                if entry["name"] == "service_errors_total"
                and entry["labels"] == {"status": "400"}
            )

        before = errors_400()
        raw_exchange(live_server, b"BROKEN\r\n\r\n")
        assert errors_400() == before + 1


#: Bytes a request-line or header field may carry here: anything but the
#: line terminators, non-ASCII included.
_FIELD = st.binary(max_size=24).map(
    lambda raw: raw.replace(b"\r", b"").replace(b"\n", b"")
)
_TOKEN = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=10
).map(lambda text: text.encode("ascii"))


@settings(max_examples=150, deadline=None)
@given(
    method=st.sampled_from([b"GET", b"HEAD", b"POST", b"OPTIONS", b"PATCH"]) | _TOKEN,
    path=st.tuples(
        st.sampled_from(
            [b"/", b"/healthz", b"//healthz", b"/v1/epochs/", b"/v1/epochs/0/"]
        ),
        _FIELD,
    ).map(b"".join),
    version=st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0", b"HTTP/1"]),
    headers=st.lists(st.tuples(_TOKEN | _FIELD, _FIELD), max_size=5),
    conditional=st.booleans(),
)
def test_any_request_gets_one_well_framed_response(
    live_server, method, path, version, headers, conditional
):
    if conditional:
        etag = live_server.router.handle("GET", "/healthz").headers["ETag"]
        headers = headers + [(b"If-None-Match", etag.encode("ascii"))]
    request = method + b" " + path + b" " + version + b"\r\n"
    request += b"".join(name + b": " + value + b"\r\n" for name, value in headers)
    host, port = live_server.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(request + b"\r\n")
        # Half-close: after one response the server reads EOF and closes.
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    status, _headers, body, rest = split_response(
        b"".join(chunks), head_only=method == b"HEAD"
    )
    assert rest == b""
    assert status in {200, 304, 400, 404, 405, 414, 431, 505}
    if method != b"HEAD" and status != 304:
        json.loads(body)
