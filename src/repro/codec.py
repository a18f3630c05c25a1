"""One dataclass-driven JSON codec for every measured artifact.

:func:`encode` and :func:`decode` are driven by ``dataclasses.fields`` and
the type hints of the encoded fields, resolved once per class and cached.
Skipped fields' hints are never evaluated, so they may name types that
their module imports only under ``TYPE_CHECKING``.  Store
stages and ``--json`` archives use them, so the store's content addresses
are hashes of exactly these encodings.  The rules, all read off the types:

* a dataclass encodes as a dict of its ``init`` fields, minus those
  marked ``field(metadata=SKIP)`` (intermediate state); ``init=False``
  fields are derived indexes that ``__post_init__`` rebuilds;
* a class with ``KIND: ClassVar[str]`` also carries ``schema`` and
  ``kind``, checked on decode wherever it is nested;
* enums encode by value, sets as sorted lists, and a dict keyed by
  tuples as ``[*key, value]`` rows in insertion order (key order under
  ``field(metadata=SORTED)``);
* an ``Any`` value is plain JSON already and passes through unchanged.

Decoding is strict: every encoded field is required, primitives are
type-checked (a bool is not an int, nor an int a bool), and every
failure is a :class:`~repro.errors.ReproError` naming the dotted path, e.g.
``experiment-report.rows[0] is missing required field 'measured'``.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import functools
import typing
from types import MappingProxyType
from typing import Any, Callable, Dict, Tuple

from repro.errors import ReproError

SCHEMA_VERSION = 1

#: ``field(metadata=SKIP)``: intermediate state, left out of the encoding.
SKIP = MappingProxyType({"codec": "skip"})
#: ``field(metadata=SORTED)``: a tuple-keyed dict's rows go in key order.
SORTED = MappingProxyType({"codec": "sorted"})

#: (encoder, decoder); a decoder takes the JSON value and its dotted path.
Codec = Tuple[Callable[[Any], Any], Callable[[Any, str], Any]]

#: Primitive type -> the JSON value types it accepts, matched exactly (so
#: a bool, though an ``int`` subclass, is not an int).
_PRIMITIVES: Dict[Any, Tuple[type, ...]] = {
    bool: (bool,),
    int: (int,),
    float: (int, float),
    str: (str,),
    type(None): (type(None),),
}


def encode(obj: Any) -> Dict[str, Any]:
    """The JSON-compatible encoding of the dataclass instance ``obj``."""
    return _dataclass_codec(type(obj))[0](obj)


def decode(cls: type, data: Any) -> Any:
    """Rebuild a ``cls`` from :func:`encode`'s output, strictly."""
    return _dataclass_codec(cls)[1](data, getattr(cls, "KIND", cls.__name__))


def _expect(value: Any, json_type: type, what: str, path: str) -> None:
    if type(value) is not json_type:
        raise ReproError(
            f"{path} is unreadable: expected {what}, got {type(value).__name__}"
        )


def _encoded_hints(cls: type, names: Tuple[str, ...]) -> Dict[str, Any]:
    """The resolved type hints of ``cls``'s fields ``names``, and no others."""
    hints: Dict[str, Any] = {}
    for base in reversed(cls.__mro__):
        own = {
            name: hint
            for name, hint in base.__dict__.get("__annotations__", {}).items()
            if name in names
        }
        if own:
            namespace = {"__annotations__": own, "__module__": base.__module__}
            hints.update(typing.get_type_hints(type(base.__name__, (), namespace)))
    return hints


@functools.lru_cache(maxsize=None)
def _dataclass_codec(cls: type) -> Codec:
    kind = getattr(cls, "KIND", None)
    encoded = [
        f
        for f in dataclasses.fields(cls)
        if f.init and f.metadata.get("codec") != "skip"
    ]
    hints = _encoded_hints(cls, tuple(f.name for f in encoded))
    fields = [
        (f.name, *_compile(hints[f.name], f.metadata.get("codec") == "sorted"))
        for f in encoded
    ]

    def encode_object(obj: Any) -> Dict[str, Any]:
        data = {"schema": SCHEMA_VERSION, "kind": kind} if kind else {}
        for name, encode_field, _ in fields:
            data[name] = encode_field(getattr(obj, name))
        return data

    def decode_object(data: Any, path: str) -> Any:
        _expect(data, dict, "an object", path)
        if kind:
            _check_kind(data, kind)
        values = {}
        for name, _, decode_field in fields:
            if name not in data:
                raise ReproError(f"{path} is missing required field {name!r}")
            values[name] = decode_field(data[name], f"{path}.{name}")
        return cls(**values)

    return encode_object, decode_object


def _compile(tp: Any, sort: bool = False) -> Codec:
    """The codec for one resolved type hint."""
    if tp is Any:
        return _JSON_CODEC
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is dict and typing.get_origin(args[0]) is tuple:
        return _rows_codec(typing.get_args(args[0]), args[1], sort)
    if tp in _PRIMITIVES or (
        origin is typing.Union and all(arg in _PRIMITIVES for arg in args)
    ):
        return _primitive_codec(args or (tp,))
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return _enum_codec(tp)
    if dataclasses.is_dataclass(tp):
        return _dataclass_codec(tp)
    if origin in (list, set):
        return _sequence_codec(origin, *_compile(args[0]))
    if origin in (dict, collections.Counter) and args[0] is str:
        value = int if origin is collections.Counter else args[1]
        return _mapping_codec(origin, *_compile(value))
    raise ReproError(f"codec: no rule for type {tp!r}")


def _identity(value: Any, path: str = "") -> Any:
    return value


#: ``Any``: the value is JSON as it stands, both ways.
_JSON_CODEC: Codec = (_identity, _identity)


def _primitive_codec(types: Tuple[Any, ...]) -> Codec:
    accepted = tuple(t for tp in types for t in _PRIMITIVES[tp])
    what = " or ".join("None" if tp is type(None) else tp.__name__ for tp in types)

    def decode_primitive(value: Any, path: str) -> Any:
        if type(value) not in accepted:
            raise ReproError(f"{path} must be {what}, got {type(value).__name__}")
        return value

    return _identity, decode_primitive


def _enum_codec(cls: type) -> Codec:
    def decode_member(value: Any, path: str) -> Any:
        try:
            return cls(value)
        except (ValueError, TypeError):
            raise ReproError(f"{path} is not a {cls.__name__} value: {value!r}") from None

    return (lambda member: member.value), decode_member


def _sequence_codec(origin: type, encode_item, decode_item) -> Codec:
    def encode_sequence(items: Any) -> list:
        encoded = [encode_item(item) for item in items]
        return sorted(encoded) if origin is set else encoded

    def decode_sequence(data: Any, path: str) -> Any:
        _expect(data, list, "a list", path)
        return origin(decode_item(item, f"{path}[{i}]") for i, item in enumerate(data))

    return encode_sequence, decode_sequence


def _mapping_codec(origin: type, encode_value, decode_value) -> Codec:
    def encode_mapping(mapping: Any) -> Dict[str, Any]:
        return {key: encode_value(value) for key, value in mapping.items()}

    def decode_mapping(data: Any, path: str) -> Any:
        _expect(data, dict, "an object", path)
        return origin(
            {key: decode_value(value, f"{path}[{key!r}]") for key, value in data.items()}
        )

    return encode_mapping, decode_mapping


def _rows_codec(key_types: Tuple[Any, ...], value_type: Any, sort: bool) -> Codec:
    """``Dict[Tuple[...], V]`` as ``[*key, value]`` rows; keys hold primitives."""
    decode_key = [_primitive_codec((tp,))[1] for tp in key_types]
    encode_value, decode_value = _compile(value_type)
    width = len(key_types) + 1

    def encode_rows(mapping: Any) -> list:
        items = sorted(mapping.items()) if sort else mapping.items()
        return [[*key, encode_value(value)] for key, value in items]

    def decode_rows(data: Any, path: str) -> Dict[tuple, Any]:
        _expect(data, list, "a list of rows", path)
        rows = {}
        for i, row in enumerate(data):
            where = f"{path}[{i}]"
            _expect(row, list, "a row", where)
            if len(row) != width:
                raise ReproError(f"{where} has {len(row)} items, expected {width}")
            key = tuple(
                decode_part(part, f"{where}[{j}]")
                for j, (decode_part, part) in enumerate(zip(decode_key, row))
            )
            rows[key] = decode_value(row[-1], f"{where}[{width - 1}]")
        return rows

    return encode_rows, decode_rows


def _check_kind(data: Dict[str, Any], expected: str) -> None:
    kind, schema = data.get("kind"), data.get("schema")
    if kind != expected:
        raise ReproError(f"expected artifact kind {expected!r}, got {kind!r}")
    if type(schema) is not int:
        raise ReproError(f"artifact has no integer schema version: {schema!r}")
    if schema > SCHEMA_VERSION:
        raise ReproError(
            f"artifact schema version {schema} is newer than this build "
            f"(reads up to {SCHEMA_VERSION}); upgrade to load it"
        )
    if schema < SCHEMA_VERSION:
        raise ReproError(
            f"unsupported schema version {schema!r} (this build reads {SCHEMA_VERSION})"
        )
