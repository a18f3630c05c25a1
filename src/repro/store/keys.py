"""Cache-key derivation: configuration + code → a stable digest.

A :class:`CacheKey` answers "may this cached artifact stand in for a
recompute?".  It must change whenever anything that could change the
artifact changes — the seed, any population/scan/fault/worker setting,
the upstream artifacts feeding the stage, the RNG cursor the stage starts
from, or the code implementing it — and must *not* change under
irrelevant permutations such as dict insertion order.

Code is folded in as a fingerprint: the SHA-256 of the source bytes of
the modules a stage names *and every module they reach through* ``repro``
import statements.  Editing any of those modules silently invalidates
every artifact the stage ever produced, which is the only safe default
for a cache that feeds published numbers.  The closure is derived from
the source, never declared, so it cannot fall behind the code.
"""

from __future__ import annotations

import enum
import hashlib
import importlib.util
import os
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, FrozenSet, Iterator, Mapping, Optional, Set, Tuple

from repro.errors import StoreError
from repro.store.cas import canonical_json_bytes


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to plain JSON types with deterministic ordering.

    Mappings are key-sorted (insertion order never matters), tuples become
    lists, sets/frozensets become sorted lists, and enums collapse to
    their ``value``.  Anything else that is not a JSON scalar is rejected
    — a key must never depend on an object's ``repr`` or identity.
    """
    if isinstance(value, enum.Enum):
        return canonicalize(value.value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(key): canonicalize(value[key]) for key in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [canonicalize(item) for item in value]
        return sorted(items, key=lambda item: canonical_json_bytes({"k": item}))
    raise StoreError(
        f"cache-key field of type {type(value).__name__} is not canonicalizable"
    )


#: Second-level subpackages the import closure does not enter: they carry
#: artifacts and telemetry but never shape artifact *content*, so hashing
#: them would churn every cache key on infra-only changes.  ``supervise``
#: qualifies by the crashtest invariant itself: a crashed-and-resumed run
#: is byte-identical to a clean one, so supervision can never shape bytes.
EXEMPT_LAYERS = frozenset({"cli", "errors", "obs", "store", "supervise"})

#: The ``repro`` package directory, which module names resolve against.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: One import statement, matched from its statement start (line start,
#: ``;`` or ``:``).  Name lists are limited to the characters an import
#: can contain, so an unbalanced ``(`` in a docstring can never swallow
#: the statements that follow it.  Imports spelled inside strings also
#: match; they only widen the closure, which is the safe direction.
_IMPORT_STATEMENT = re.compile(
    r"[ \t]*(?:"
    r"from[ \t]+(?P<base>repro\b[\w.]*)[ \t]+import[ \t]*"
    r"(?P<names>\((?:[\w \t\n,]|#[^\n]*)*\)|(?:[\w \t,*]|\\\n)*)"
    r"|import[ \t]+(?P<modules>(?:[\w \t,.]|\\\n)*)"
    r")"
)
_COMMENT = re.compile(r"#[^\n]*")


def _import_statements(source: str) -> Iterator["re.Match[str]"]:
    """Every match of :data:`_IMPORT_STATEMENT` in ``source``.

    Tried only back from each ``import`` keyword to its statement start:
    running the pattern at every offset made the scan eight times slower.
    """
    end = 0
    at = source.find("import")
    while at != -1:
        line = source.rfind("\n", 0, at) + 1
        start = max(
            line, source.rfind(";", line, at) + 1, source.rfind(":", line, at) + 1
        )
        match = _IMPORT_STATEMENT.match(source, start) if start >= end else None
        if match is not None:
            end = match.end()
            yield match
        at = source.find("import", at + 1)


def scan_imports(source: str) -> Set[Tuple[str, Optional[str]]]:
    """The ``repro`` imports in ``source``, found without parsing it.

    ``import repro.a`` yields ``("repro.a", None)``; ``from repro.a import
    b, c`` yields ``("repro.a", "b")`` and ``("repro.a", "c")``.  Function
    bodies and ``if TYPE_CHECKING:`` blocks are included — anything that
    can import a module can make the stage depend on it.  Relative
    imports are not recognised; the package uses none.
    """
    found: Set[Tuple[str, Optional[str]]] = set()
    for match in _import_statements(source):
        if match.group("base") is not None:
            names = _COMMENT.sub("", match.group("names"))
            for name in _split_names(names.strip("()")):
                found.add((match.group("base"), name))
        else:
            for module in _split_names(match.group("modules")):
                if module == "repro" or module.startswith("repro."):
                    found.add((module, None))
    return found


def _split_names(text: str) -> Iterator[str]:
    """Imported names in a comma list, ``as`` aliases dropped."""
    for item in text.replace("\\\n", " ").split(","):
        words = item.split()
        if words:
            yield words[0]


@lru_cache(maxsize=None)
def _source_path(module: str) -> Optional[str]:
    """The source file of a module; ``repro`` ones are found without
    importing anything."""
    parts = module.split(".")
    if not all(part.isidentifier() for part in parts):
        return None
    if parts[0] != "repro":
        try:
            spec = importlib.util.find_spec(module)
        except (ImportError, ValueError):
            return None
        origin = getattr(spec, "origin", None) or ""
        return origin if origin.endswith(".py") else None
    base = os.path.join(_PACKAGE_DIR, *parts[1:])
    for path in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(path):
            return path
    return None


def resolve_import(base: str, name: Optional[str]) -> Optional[str]:
    """The module an import binds: ``base.name`` when that is a module,
    else the deepest existing module prefix of ``base``.

    Only the deepest module counts — ``from repro import io`` depends on
    ``repro.io``, not on the ``repro`` package whose ``__init__`` would
    drag the whole tree into every closure.
    """
    if name is not None and _source_path(f"{base}.{name}") is not None:
        return f"{base}.{name}"
    while _source_path(base) is None:
        if "." not in base:
            return None
        base = base.rsplit(".", 1)[0]
    return base


@lru_cache(maxsize=None)
def scan_module(module: str) -> Tuple[str, FrozenSet[str]]:
    """One module's source digest and the ``repro`` modules it imports.

    Cached per process, so each file is read once however many stage
    closures hold it.
    """
    path = _source_path(module)
    if path is None:
        raise StoreError(
            f"cannot fingerprint module {module!r}: no Python source found"
        )
    with open(path, "rb") as handle:
        source = handle.read()
    imports = {
        resolve_import(base, name)
        for base, name in scan_imports(source.decode("utf-8"))
    }
    imports.discard(None)
    imports.discard(module)
    return hashlib.sha256(source).hexdigest(), frozenset(imports)


def import_closure(roots: Tuple[str, ...]) -> FrozenSet[str]:
    """``roots`` plus every module they reach through ``repro`` imports.

    The walk does not enter :data:`EXEMPT_LAYERS`; a root is always
    included, wherever it lives.
    """
    closure = set(roots)
    frontier = list(closure)
    while frontier:
        _, imports = scan_module(frontier.pop())
        for module in imports:
            if module not in closure and _layer_of(module) not in EXEMPT_LAYERS:
                closure.add(module)
                frontier.append(module)
    return frozenset(closure)


def _layer_of(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


@lru_cache(maxsize=None)
def code_fingerprint(modules: Tuple[str, ...]) -> str:
    """SHA-256 over the sources of ``modules``' import closure.

    Each module in the closure contributes its name and the SHA-256 of
    its source, in sorted order, so the fingerprint is independent of
    declaration order but sensitive to both renames and content changes.
    Cached per-process: stage wrappers call this on every stage execution.
    """
    hasher = hashlib.sha256()
    for name in sorted(import_closure(modules)):
        digest, _ = scan_module(name)
        hasher.update(f"{name}\x00{digest}\x00".encode("utf-8"))
    return hasher.hexdigest()


@dataclass(frozen=True)
class CacheKey:
    """Everything that decides whether a cached stage artifact is reusable."""

    stage: str
    config: Mapping[str, Any]
    fingerprint: str
    #: Content digests of the upstream artifacts this stage consumed.
    upstream: Tuple[str, ...] = ()
    #: Digest of the RNG/attempt cursor the stage starts from (or "").
    cursor: str = ""
    _canonical: Dict[str, Any] = field(
        default=None, init=False, repr=False, compare=False  # type: ignore[assignment]
    )

    def canonical(self) -> Dict[str, Any]:
        """The key's canonical JSON form (what gets hashed and ledgered)."""
        if self._canonical is None:
            object.__setattr__(
                self,
                "_canonical",
                {
                    "stage": self.stage,
                    "config": canonicalize(self.config),
                    "fingerprint": self.fingerprint,
                    "upstream": list(self.upstream),
                    "cursor": self.cursor,
                },
            )
        return self._canonical

    def digest(self) -> str:
        """SHA-256 hex digest identifying this key."""
        return hashlib.sha256(canonical_json_bytes(self.canonical())).hexdigest()
