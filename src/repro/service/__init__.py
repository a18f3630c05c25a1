"""Measurement-as-a-service: epoch controller, results layer, query API.

The service plane turns the one-shot measurement pipeline into a
long-running daemon, split the way stem splits its controller from its
socket layer:

- :mod:`repro.service.controller` sequences supervised harvest → scan →
  certificates → crawl → classify → popularity → views epochs against a
  deterministically evolving world, checkpointing every stage through
  ``repro.store`` under an epoch-pinned ledger run id;
- :mod:`repro.service.results` materializes the per-epoch query views
  (rankings, port histograms, topic breakdowns, dossiers, deltas) as
  CAS-backed envelopes with stable digests;
- :mod:`repro.service.api` routes queries to those views with digest
  ETags, conditional 304s and the 4xx/5xx taxonomy mapped from
  ``repro.errors``; :mod:`repro.service.http` serves the router over a
  lean HTTP/1.1 keep-alive handler with capped request heads (JSON 400,
  414, 431 and 505 envelopes for malformed ones) and a bounded handler
  pool;
- :mod:`repro.service.client` is the in-process twin of the HTTP
  front-end, so the whole daemon is testable without sockets.
"""

from repro.service.api import Response, ServiceRouter, etag_of, status_of
from repro.service.client import ClientResponse, InProcessClient
from repro.service.controller import (
    SERVICE_EPOCH_STAGES,
    EpochController,
    EpochRecord,
    ServiceEpochRun,
    epoch_run_id,
)
from repro.service.http import ServiceHTTPServer, bind
from repro.service.results import build_views, dossier_envelope
from repro.service.schema import (
    SCHEMA_VERSION,
    VIEW_KINDS,
    check_view,
    check_views,
    error_envelope,
    view_envelope,
)

__all__ = [
    "SCHEMA_VERSION",
    "SERVICE_EPOCH_STAGES",
    "VIEW_KINDS",
    "ClientResponse",
    "EpochController",
    "EpochRecord",
    "InProcessClient",
    "Response",
    "ServiceEpochRun",
    "ServiceHTTPServer",
    "ServiceRouter",
    "bind",
    "build_views",
    "check_view",
    "check_views",
    "dossier_envelope",
    "epoch_run_id",
    "error_envelope",
    "etag_of",
    "status_of",
    "view_envelope",
]
