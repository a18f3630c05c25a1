"""Parse-once AST cache shared by every lint rule and analysis pass.

``repro lint`` runs per-file AST rules and one project-wide analysis (the
import graph).  Each of those passes needs the same parsed trees, so
parsing is centralised here: an :class:`AstCache`
maps absolute paths to :class:`~repro.devtools.registry.FileContext`
objects and guarantees each file is read and parsed exactly once per
process, however many rules or passes consume it.

The cache is also what ``repro lint --fix`` invalidates after rewriting a
file, so the verification re-lint sees the patched source without paying
a full re-parse of the untouched files.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Sequence

from repro.devtools.registry import FileContext
from repro.errors import ConfigError


def module_name_for(path: str) -> str:
    """Dotted module name by walking up the ``__init__.py`` package chain."""
    abspath = os.path.abspath(path)
    directory, filename = os.path.split(abspath)
    parts = [os.path.splitext(filename)[0]]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.append(package)
    if parts[0] == "__init__":
        parts = parts[1:] or parts
    return ".".join(reversed(parts))


def parse_file(path: str) -> FileContext:
    """Parse one file into a :class:`FileContext` (posix-normalised path)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise ConfigError(f"syntax error in {path}:{exc.lineno}: {exc.msg}") from exc
    return FileContext(
        path=path.replace(os.sep, "/"),
        module=module_name_for(path),
        tree=tree,
        lines=source.splitlines(),
    )


class AstCache:
    """Path → parsed :class:`FileContext`, each file parsed exactly once.

    Keys are absolute paths, so the same file reached through different
    relative spellings still parses once.  ``parses`` counts actual parse
    work (not cache hits); the lint bench asserts it equals the file
    count, which is how "parse each file exactly once" stays a tested
    property rather than an intention.
    """

    def __init__(self) -> None:
        self._by_path: Dict[str, FileContext] = {}
        #: Number of real (non-cached) parses performed.
        self.parses = 0

    def get(self, path: str) -> FileContext:
        """The parsed context for ``path``, parsing on first request."""
        key = os.path.abspath(path)
        ctx = self._by_path.get(key)
        if ctx is None:
            ctx = parse_file(path)
            self._by_path[key] = ctx
            self.parses += 1
        return ctx

    def contexts(self, paths: Sequence[str]) -> List[FileContext]:
        """Parsed contexts for every path, in the given order."""
        return [self.get(path) for path in paths]

    def invalidate(self, path: str) -> None:
        """Drop the cached parse for ``path`` (after a --fix rewrite)."""
        self._by_path.pop(os.path.abspath(path), None)

    def __len__(self) -> int:
        return len(self._by_path)
