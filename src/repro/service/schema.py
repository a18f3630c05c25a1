"""Versioned response framing for the measurement service.

Every body the service emits — query views, epoch listings, health and
error responses — is wrapped in a schema-stamped envelope: the version
is the first thing a reader checks, and the strict loaders raise
:class:`~repro.errors.ServiceSchemaError` on drift instead of guessing.

The envelope is also the service's unit of caching: a view envelope's
content digest (:func:`repro.store.digest_of` over the whole envelope)
is both its CAS address and its HTTP ETag, so "the bytes changed" and
"the cache key changed" are the same fact.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.errors import ServiceSchemaError

#: Version stamped into every envelope; bump on layout change.
SCHEMA_VERSION = 1

#: The per-epoch query views the results layer materializes.
VIEW_KINDS: Tuple[str, ...] = ("ranking", "ports", "topics", "dossiers", "delta")


def _field(data: Mapping[str, Any], key: str, kinds, where: str):
    if not isinstance(data, Mapping):
        raise ServiceSchemaError(
            f"{where}: expected an object, got {type(data).__name__}"
        )
    if key not in data:
        raise ServiceSchemaError(f"{where}: missing field {key!r}")
    value = data[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ServiceSchemaError(
            f"{where}: field {key!r} has type {type(value).__name__}"
        )
    return value


def _check_schema(data: Mapping[str, Any], where: str) -> None:
    version = _field(data, "schema", int, where)
    if version != SCHEMA_VERSION:
        raise ServiceSchemaError(
            f"{where}: schema version {version} does not match "
            f"supported version {SCHEMA_VERSION}"
        )


def view_envelope(
    kind: str, epoch: int, seed: int, scale: float, body: Dict[str, Any]
) -> Dict[str, Any]:
    """Wrap one query view's body in the versioned envelope."""
    if kind not in VIEW_KINDS:
        raise ServiceSchemaError(
            f"unknown view kind {kind!r}; expected one of {VIEW_KINDS}"
        )
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "epoch": epoch,
        "seed": seed,
        "scale": scale,
        "body": body,
    }


def check_view(data: Mapping[str, Any], where: str = "service view") -> Dict[str, Any]:
    """Strict decode of a view envelope (shape only, not body semantics)."""
    _check_schema(data, where)
    kind = _field(data, "kind", str, where)
    if kind not in VIEW_KINDS:
        raise ServiceSchemaError(f"{where}: unknown view kind {kind!r}")
    _field(data, "epoch", int, where)
    _field(data, "seed", int, where)
    _field(data, "scale", (int, float), where)
    _field(data, "body", dict, where)
    return dict(data)


def check_views(
    views: Mapping[str, Any], where: str = "service views"
) -> Dict[str, Dict[str, Any]]:
    """Strict decode of a full per-epoch view set (every kind present)."""
    if not isinstance(views, Mapping):
        raise ServiceSchemaError(
            f"{where}: expected an object, got {type(views).__name__}"
        )
    checked: Dict[str, Dict[str, Any]] = {}
    for kind in VIEW_KINDS:
        entry = _field(views, kind, dict, where)
        view = check_view(entry, f"{where}[{kind}]")
        if view["kind"] != kind:
            raise ServiceSchemaError(
                f"{where}: entry {kind!r} holds a {view['kind']!r} view"
            )
        checked[kind] = view
    return checked


def error_envelope(status: int, error: BaseException) -> Dict[str, Any]:
    """The 4xx/5xx response body: error type + message, schema-stamped."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "error",
        "status": status,
        "error": {
            "type": type(error).__name__,
            "message": str(error),
        },
    }
