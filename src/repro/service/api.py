"""The query API: routing, ETags, and the 4xx/5xx error taxonomy.

The router is transport-agnostic — it maps ``(method, path, headers)``
to a :class:`Response` and never touches a socket.  The HTTP front-end
(:mod:`repro.service.http`) and the in-process test client
(:mod:`repro.service.client`) are both thin adapters over
:meth:`ServiceRouter.handle`, so every route, header, and error body is
testable without binding a port.

Caching: a document's ETag is its content digest, quoted per RFC 9110.
The router renders each document it serves — a view or dossier of one
epoch, the health and epoch listings for one record count — once: the
digest and the indented wire bytes are memoised under a key naming
exactly that document, and every later request reuses them.  A
conditional ``If-None-Match`` request that matches returns 304 with an
empty body, so concurrent readers of an unchanged epoch cost one string
comparison, not a serialization.  Errors and ``/v1/metrics`` (live) are
rendered per request.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.errors import (
    ConfigError,
    ReproError,
    ServiceError,
    ServiceSchemaError,
)
from repro.obs.export import render_json
from repro.obs.scope import Observer, ensure_observer
from repro.service.controller import EpochRecord
from repro.service.results import dossier_envelope
from repro.service.schema import SCHEMA_VERSION, VIEW_KINDS, error_envelope
from repro.store.cas import digest_of

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Method labels of ``service_requests_total``.  Any other method token
#: counts as ``"other"``, so clients cannot add a series per request.
COUNTED_METHODS = frozenset(
    {"GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH"}
)


@dataclass(frozen=True)
class Response:
    """One framed response: status, headers, body bytes."""

    status: int
    body: bytes = b""
    headers: Mapping[str, str] = field(default_factory=dict)


def _encode(document: Mapping[str, Any]) -> bytes:
    """The service wire encoding: sorted keys, two-space indent, newline.

    Sorting makes the bytes independent of dict construction order, so a
    live-computed envelope and its store-replayed twin serialize
    identically — the property the ETag tests pin.
    """
    return (
        json.dumps(document, indent=2, sort_keys=True, allow_nan=False).encode(
            "utf-8"
        )
        + b"\n"
    )


def etag_of(document: Mapping[str, Any]) -> str:
    """The quoted ETag for an envelope: its CAS content digest."""
    return f'"sha256:{digest_of(dict(document))}"'


def status_of(error: ReproError) -> int:
    """Map a library error onto the 4xx/5xx taxonomy."""
    if isinstance(error, (ConfigError, ServiceSchemaError)):
        return 400
    return 500


class ServiceRouter:
    """Routes queries over the controller's epoch records.

    Thread-safe for concurrent reads: the records list only ever grows
    (append-only, from one controller thread), and the shared observer —
    which is *not* thread-safe — is only touched under ``_lock``.  The
    render memo needs no lock: rendering is deterministic, so two threads
    that miss on the same key at once store the same value, and each
    dict store is atomic.  It holds one entry per served document and
    needs no eviction: an epoch's views never change once appended.
    """

    def __init__(
        self,
        records: Optional[List[EpochRecord]] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.records = records if records is not None else []
        self.observer = ensure_observer(observer)
        self._lock = threading.Lock()
        #: document key → (ETag, wire body); see :meth:`_json_response`.
        self._rendered: Dict[Hashable, Tuple[str, bytes]] = {}

    # -- observability ----------------------------------------------------- #

    def _count(self, name: str, **labels: object) -> None:
        with self._lock:
            self.observer.count(name, **labels)

    # -- epoch resolution -------------------------------------------------- #

    def _resolve_epoch(self, selector: str) -> Optional[EpochRecord]:
        if selector == "latest":
            return self.records[-1] if self.records else None
        # ASCII only: str.isdigit also accepts "²" (which int() rejects)
        # and "٣" (which int() reads as 3).
        if not (selector.isascii() and selector.isdigit()):
            return None
        epoch = int(selector)
        if epoch >= len(self.records):
            return None
        return self.records[epoch]

    # -- responses --------------------------------------------------------- #

    def _json_response(
        self,
        key: Hashable,
        build: Callable[[], Optional[Mapping[str, Any]]],
        headers: Mapping[str, str],
        route: str,
    ) -> Optional[Response]:
        """200 with body — or 304 without, when If-None-Match hits.

        ``key`` names the document ``build`` returns; the document is
        digested and encoded on the key's first request only.  None when
        ``build`` finds no document, which is never memoised.
        """
        rendered = self._rendered.get(key)
        if rendered is None:
            document = build()
            if document is None:
                return None
            rendered = (etag_of(document), _encode(document))
            self._rendered[key] = rendered
        etag, body = rendered
        if headers.get("If-None-Match") == etag:
            self._count("service_cache_hits_total", route=route)
            return Response(
                status=304,
                headers={"ETag": etag, "Content-Type": JSON_CONTENT_TYPE},
            )
        return Response(
            status=200,
            body=body,
            headers={"ETag": etag, "Content-Type": JSON_CONTENT_TYPE},
        )

    def error(self, status: int, error: ReproError) -> Response:
        """An error envelope, counted in ``service_errors_total``."""
        self._count("service_errors_total", status=status)
        return Response(
            status=status,
            body=_encode(error_envelope(status, error)),
            headers={"Content-Type": JSON_CONTENT_TYPE},
        )

    # -- routes ------------------------------------------------------------ #

    def _health(self, count: int) -> Mapping[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "health",
            "status": "ok",
            "epochs": count,
        }

    def _epochs(self, count: int) -> Mapping[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "epochs",
            "epochs": [record.summary() for record in self.records[:count]],
        }

    def _metrics(self) -> Response:
        with self._lock:
            body = render_json(self.observer).encode("utf-8")
        return Response(
            status=200, body=body, headers={"Content-Type": JSON_CONTENT_TYPE}
        )

    def _route_epoch(
        self, parts: List[str], headers: Mapping[str, str]
    ) -> Response:
        record = self._resolve_epoch(parts[0])
        if record is None:
            return self.error(
                404, ServiceError(f"no such epoch: {parts[0]!r}")
            )
        if len(parts) == 2 and parts[1] in VIEW_KINDS:
            kind = parts[1]
            return self._json_response(
                (record.epoch, kind),
                lambda: record.views[kind],
                headers,
                route=f"view:{kind}",
            )
        if len(parts) == 3 and parts[1] == "dossier":
            onion = parts[2]
            response = self._json_response(
                (record.epoch, "dossier", onion),
                lambda: dossier_envelope(record.views, onion),
                headers,
                route="dossier",
            )
            if response is None:
                return self.error(
                    404,
                    ServiceError(
                        f"epoch {record.epoch} never observed {onion!r}"
                    ),
                )
            return response
        return self.error(
            404, ServiceError(f"unknown epoch query: {'/'.join(parts[1:])!r}")
        )

    def handle(
        self, method: str, path: str, headers: Optional[Mapping[str, str]] = None
    ) -> Response:
        """Serve one request; never raises (errors become envelopes)."""
        headers = headers if headers is not None else {}
        self._count(
            "service_requests_total",
            method=method if method in COUNTED_METHODS else "other",
        )
        if method != "GET":
            return self.error(
                405, ServiceError(f"method {method} not allowed; use GET")
            )
        try:
            path = path.split("?", 1)[0].rstrip("/") or "/"
            # Records are append-only and complete once appended, so the
            # count names the listing; the builders read that many only.
            count = len(self.records)
            if path == "/healthz":
                return self._json_response(
                    ("healthz", count),
                    lambda: self._health(count),
                    headers,
                    "healthz",
                )
            if path == "/v1/metrics":
                return self._metrics()
            if path == "/v1/epochs":
                return self._json_response(
                    ("epochs", count),
                    lambda: self._epochs(count),
                    headers,
                    "epochs",
                )
            parts = [part for part in path.split("/") if part]
            if len(parts) >= 3 and parts[:2] == ["v1", "epochs"]:
                return self._route_epoch(parts[2:], headers)
            return self.error(404, ServiceError(f"no route for {path!r}"))
        except ReproError as exc:
            return self.error(status_of(exc), exc)
