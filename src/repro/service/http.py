"""The HTTP front-end: a lean HTTP/1.1 keep-alive server over the router.

Raw socket handling for the whole project lives here and only here —
source check REP015 forbids ``socket``/``http`` imports
anywhere outside ``repro/service``.  The handler is deliberately thin:
it reads the request head, hands ``(method, path, headers)`` to
:meth:`repro.service.api.ServiceRouter.handle` and writes the framed
response back.  It never reads a request body, so a request that may
carry one closes its connection after the response.

Each connection runs one loop: read the request line and the header
lines with a bounded ``readline`` (at most :data:`MAX_LINE` bytes a line
and :data:`MAX_HEADERS` header lines), put the headers in a plain dict
keyed by title-cased name (a repeated name joins its values with
``", "``), route, then frame the status line, the headers and the body
into one buffer sent with one ``sendall``.  Nagle's algorithm is off
(``TCP_NODELAY``), so a response never waits for the client to ACK the
previous one.  HTTP/1.1 connections stay open unless the request says
``Connection: close``; HTTP/1.0 ones close unless it says
``keep-alive``.  Every method but GET gets the router's 405 (a HEAD
response carries its headers only).

A malformed head is answered with the router's JSON error envelope
(:meth:`~repro.service.api.ServiceRouter.error`, which counts it) and
``Connection: close``: 400 for a request line that is not three
words, a malformed version or a header line without a colon, 414 for a
request line over :data:`MAX_LINE`, 431 for a header line over it or
more than :data:`MAX_HEADERS` headers, 505 for HTTP/2 and later.

An idle connection is closed after ``_ServiceRequestHandler.timeout``
seconds, so clients that connect and send nothing cannot hold every
slot of the bounded handler pool.

Determinism: the status line, the ``Server`` header and the ``Date``
header (pinned to the epoch constant — the sim clock is the only clock
in this codebase, REP003) are fixed, so two identical queries produce
byte-identical responses on the wire, not just identical bodies.
"""

from __future__ import annotations

import socketserver
import threading
from http import HTTPStatus
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError, ServiceError
from repro.service.api import Response, ServiceRouter

#: The pinned Date header: the service has no wall clock (REP003).
FIXED_DATE = "Thu, 01 Jan 1970 00:00:00 GMT"

#: Longest request line or header line read, line terminator included.
MAX_LINE = 65_536

#: Most header lines one request may carry.
MAX_HEADERS = 100

#: Status line plus the two pinned headers, for every standard status.
_HEADS = {
    status.value: (
        f"HTTP/1.1 {status.value} {status.phrase}\r\n"
        f"Server: repro-service\r\nDate: {FIXED_DATE}\r\n"
    )
    for status in HTTPStatus
}


def _version(token: str) -> Optional[Tuple[int, int]]:
    """``HTTP/major.minor`` as two ints, or None when malformed."""
    prefix, _, number = token.partition("/")
    major, dot, minor = number.partition(".")
    if prefix != "HTTP" or not dot:
        return None
    for part in (major, minor):
        # ASCII only: str.isdigit also accepts "²", which int() rejects.
        if not (part.isascii() and part.isdigit() and len(part) <= 10):
            return None
    return int(major), int(minor)


class _ServiceRequestHandler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True
    #: Seconds a connection may sit idle (or stall a read or write)
    #: before it is closed and its handler slot freed.
    timeout = 30.0

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except OSError:
            # A reset, broken pipe or timeout: the client is gone or idle,
            # and the connection ends without a response.
            return

    def _serve_one(self) -> bool:
        """Answer one request; whether the connection stays open."""
        readline = self.rfile.readline
        line = readline(MAX_LINE + 1)
        if not line:
            return False
        words = line.decode("latin-1").split()
        # No response to a HEAD request has a body, an error's included.
        head = bool(words) and words[0] == "HEAD"
        if len(line) > MAX_LINE:
            return self._refuse(414, f"request line over {MAX_LINE} bytes", head)
        if len(words) != 3:
            return self._refuse(400, "request line is not METHOD PATH VERSION", head)
        method, path, token = words
        version = _version(token)
        if version is None:
            return self._refuse(400, f"malformed HTTP version {token!r}", head)
        if version >= (2, 0):
            return self._refuse(505, f"HTTP version {token!r} not supported", head)

        headers: Dict[str, str] = {}
        count = 0
        while True:
            line = readline(MAX_LINE + 1)
            if line in (b"\r\n", b"\n", b""):
                break
            count += 1
            if len(line) > MAX_LINE:
                return self._refuse(431, f"header line over {MAX_LINE} bytes", head)
            if count > MAX_HEADERS:
                return self._refuse(431, f"more than {MAX_HEADERS} headers", head)
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                return self._refuse(400, "header line without a colon", head)
            name = name.strip().title()
            value = value.strip()
            if name in headers:
                value = f"{headers[name]}, {value}"
            headers[name] = value

        connection = headers.get("Connection", "").lower()
        keep_alive = connection == "keep-alive" or (
            version >= (1, 1) and connection != "close"
        )
        # Guard against open redirects: clients read "//host/x" as a host.
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        response = self.server.router.handle(method, path, headers)
        # An unread body would stay in the socket and be parsed as the next
        # keep-alive request (request smuggling), so a request that may
        # carry one ends its connection with this response instead.
        if (
            method != "GET"
            or "Transfer-Encoding" in headers
            or headers.get("Content-Length", "0") != "0"
        ):
            self._send(response, close=True, with_body=not head)
            return False
        self._send(response, close=False)
        return keep_alive

    def _send(
        self, response: Response, close: bool, with_body: bool = True
    ) -> None:
        lines = [_HEADS[response.status]]
        lines.extend(
            f"{name}: {value}\r\n" for name, value in response.headers.items()
        )
        lines.append(f"Content-Length: {len(response.body)}\r\n")
        if close:
            lines.append("Connection: close\r\n")
        lines.append("\r\n")
        head = "".join(lines).encode("latin-1")
        self.connection.sendall(
            b"".join((head, response.body)) if with_body else head
        )

    def _refuse(self, status: int, message: str, head: bool) -> bool:
        """Answer a malformed head with an error envelope; close."""
        response = self.server.router.error(status, ServiceError(message))
        self._send(response, close=True, with_body=not head)
        return False


class ServiceHTTPServer(socketserver.ThreadingTCPServer):
    """Threaded HTTP server with a bounded handler pool.

    The server starts one thread per connection; the semaphore bounds
    how many handle requests *concurrently*, so a traffic burst queues
    instead of unboundedly fanning out over the router lock.  It is
    built unbound: :func:`bind` binds it, ``server_activate()`` listens.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        router: ServiceRouter,
        workers: int = 8,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.router = router
        self._slots = threading.BoundedSemaphore(workers)
        super().__init__(address, _ServiceRequestHandler, bind_and_activate=False)

    def process_request_thread(self, request, client_address) -> None:
        with self._slots:
            super().process_request_thread(request, client_address)


def bind(
    router: ServiceRouter,
    host: str = "127.0.0.1",
    port: int = 8750,
    workers: int = 8,
) -> ServiceHTTPServer:
    """Bind the server's port without listening on it.

    Connects are refused until ``server_activate()`` listens; then
    ``serve_forever()`` serves.  A port already in use raises
    :class:`OSError` here, before any work the caller does in between.
    """
    server = ServiceHTTPServer((host, port), router, workers=workers)
    try:
        server.server_bind()
    except OSError:
        server.server_close()
        raise
    return server
