"""The HTTP front-end: a bounded ThreadingHTTPServer over the router.

Raw socket handling for the whole project lives here and only here —
rule REP015 of ``repro lint`` forbids ``socket``/``http.server`` imports
anywhere outside ``repro/service``.  The handler is deliberately thin:
parse nothing, decide nothing, hand ``(method, path, headers)`` to
:meth:`repro.service.api.ServiceRouter.handle` and write the framed
response back.  Request bodies are never read, so a request that may
carry one closes its connection after the response.

Writes are buffered (``wbufsize = -1``): the status line, headers and
a body that fit the write buffer (8 KiB) reach the socket in one
``sendall`` when the handler flushes, instead of one send for the head
and another for the body.  Nagle's algorithm is off (``TCP_NODELAY``),
so the body of a larger response is not held back until the client
ACKs the head, which a keep-alive client delays by ~40 ms.

An idle connection is closed after ``_ServiceRequestHandler.timeout``
seconds, so clients that connect and send nothing cannot hold every
slot of the bounded handler pool.

Determinism: the handler pins ``protocol_version``, the ``Server``
header, and the ``Date`` header (to the epoch constant — the sim clock
is the only clock in this codebase, REP003) so two identical queries
produce byte-identical responses on the wire, not just identical bodies.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple

from repro.service.api import ServiceRouter

#: The pinned Date header: the service has no wall clock (REP003).
FIXED_DATE = "Thu, 01 Jan 1970 00:00:00 GMT"


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: Buffer writes; the handler's flush sends a small response whole.
    wbufsize = -1
    disable_nagle_algorithm = True
    #: Seconds a connection may sit idle (or stall a read or write)
    #: before it is closed and its handler slot freed.
    timeout = 30.0

    def version_string(self) -> str:
        return "repro-service"

    def date_time_string(self, timestamp=None) -> str:
        return FIXED_DATE

    def log_message(self, format: str, *args) -> None:
        # Request logging belongs to the observer (the router counts
        # every request); stderr chatter would also break REP009.
        pass

    def _may_carry_body(self, method: str) -> bool:
        """Whether the request may have a body; the router reads none."""
        if method != "GET" or "Transfer-Encoding" in self.headers:
            return True
        return self.headers.get("Content-Length", "0").strip() != "0"

    def _respond(self, method: str) -> None:
        response = self.server.router.handle(method, self.path, self.headers)
        self.send_response(response.status)
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(response.body)))
        if self._may_carry_body(method):
            # An unread body would stay in the socket and be parsed as
            # the next keep-alive request (request smuggling), so the
            # connection ends with this response instead.
            self.send_header("Connection", "close")
        self.end_headers()
        if response.body:
            self.wfile.write(response.body)

    def do_GET(self) -> None:
        self._respond("GET")

    def do_POST(self) -> None:
        self._respond("POST")

    def do_PUT(self) -> None:
        self._respond("PUT")

    def do_DELETE(self) -> None:
        self._respond("DELETE")


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server with a bounded handler pool.

    ``ThreadingHTTPServer`` spawns one thread per connection; the
    semaphore bounds how many handle requests *concurrently*, so a
    traffic burst queues instead of unboundedly fanning out over the
    router lock.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        router: ServiceRouter,
        workers: int = 8,
    ) -> None:
        self.router = router
        self._slots = threading.BoundedSemaphore(max(1, workers))
        super().__init__(address, _ServiceRequestHandler)

    def process_request_thread(self, request, client_address) -> None:
        with self._slots:
            super().process_request_thread(request, client_address)


def serve(
    router: ServiceRouter,
    host: str = "127.0.0.1",
    port: int = 8750,
    workers: int = 8,
) -> ServiceHTTPServer:
    """Bind the server (without starting it; call ``serve_forever``)."""
    return ServiceHTTPServer((host, port), router, workers=workers)
