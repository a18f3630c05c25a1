"""Rule registry: rules self-register at import time via a decorator.

Two rule shapes exist.  :class:`AstRule` sees one file at a time (a parsed
:class:`FileContext`); :class:`ProjectRule` sees every scanned file at
once, which is what the import-graph analysis (REP006) needs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type, Union

from repro.errors import ConfigError


@dataclass
class FileContext:
    """One parsed source file handed to every rule.

    ``module`` is the dotted module name (``repro.net.geoip``) when the file
    sits inside a package (``__init__.py`` chain), else the bare stem.
    ``path`` is always posix-style, relative to the lint invocation's cwd
    when possible, so findings and baselines are machine-independent.
    """

    path: str
    module: str
    tree: ast.Module
    lines: List[str]
    _nodes: Optional[List[ast.AST]] = field(default=None, repr=False)
    _import_origins: Optional[Dict[str, str]] = field(default=None, repr=False)

    def path_endswith(self, *suffixes: str) -> bool:
        """Whether the file path matches any posix suffix (allowlists)."""
        return any(self.path.endswith(suffix) for suffix in suffixes)

    def line_text(self, lineno: int) -> str:
        """Stripped source text of a 1-based line (empty if out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    @property
    def nodes(self) -> List[ast.AST]:
        """Every AST node, materialised once and shared by all rules.

        Ten per-file rules each doing their own ``ast.walk`` costs more
        than the parse itself; walking once and iterating a list keeps
        whole-file rules O(nodes), not O(rules × nodes).
        """
        if self._nodes is None:
            self._nodes = list(ast.walk(self.tree))
        return self._nodes

    @property
    def import_origins(self) -> Dict[str, str]:
        """Local name → dotted origin of every aliased or ``from`` import.

        ``import m as a`` maps ``a`` to ``m``; ``from m import n [as a]``
        maps ``n`` (or ``a``) to ``m.n``.  Relative imports are left out.
        """
        if self._import_origins is None:
            origins = {}
            for node in self.nodes:
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname:
                            origins[alias.asname] = alias.name
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    for alias in node.names:
                        local = alias.asname or alias.name
                        origins[local] = f"{node.module}.{alias.name}"
            self._import_origins = origins
        return self._import_origins

    def call_names(self, call: ast.Call) -> Tuple[str, ...]:
        """A call's dotted target as spelled, then with its head resolved.

        After ``import datetime as _dt``, ``_dt.datetime.now()`` gives
        ``("_dt.datetime.now", "datetime.datetime.now")``; a target whose
        head is no imported name gives only the spelling, and one that is
        no dotted name gives ().
        """
        parts = []
        node = call.func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return ()
        spelled = ".".join([node.id, *reversed(parts)])
        origin = self.import_origins.get(node.id)
        if origin is None:
            return (spelled,)
        return (spelled, origin + spelled[len(node.id) :])


class Rule:
    """Base rule: an id (``REPnnn``), a one-line summary, and allowlists.

    ``allowed_path_suffixes`` names files exempt from the rule — e.g. the
    raw-RNG rules do not apply inside ``sim/rng.py``, which is the one
    module allowed to construct :class:`random.Random` directly.
    """

    id: str = ""
    summary: str = ""
    allowed_path_suffixes: Tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.path_endswith(*self.allowed_path_suffixes)


class AstRule(Rule):
    """A rule evaluated per file over its AST."""

    def check(self, ctx: FileContext) -> Iterator:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule evaluated once over the whole project (cross-file analysis).

    ``files`` is every scanned :class:`FileContext`, parsed once and
    shared with the per-file rules.
    """

    def check_project(self, files: Sequence[FileContext]) -> Iterator:
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register(rule: Union[Type[Rule], Rule]) -> Union[Type[Rule], Rule]:
    """Index a rule by its id: a rule class (as a decorator) or an instance."""
    instance = rule() if isinstance(rule, type) else rule
    if not instance.id:
        raise ConfigError(f"rule has no id: {type(instance).__name__}")
    if instance.id in _REGISTRY:
        raise ConfigError(f"duplicate rule id: {instance.id}")
    _REGISTRY[instance.id] = instance
    return rule


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id."""
    _ensure_loaded()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule; raises :class:`ConfigError` for unknown ids."""
    _ensure_loaded()
    try:
        return _REGISTRY[rule_id]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown rule {rule_id!r} (known: {known})") from exc


def _ensure_loaded() -> None:
    # Importing the rule modules triggers their @register decorators.
    from repro.devtools import layering, rules  # noqa: F401
