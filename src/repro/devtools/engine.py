"""Lint engine: file discovery, suppression comments, rule dispatch.

Suppressions are inline comments on the flagged line::

    started = time.time()  # repro-lint: disable=REP003

or file-wide, anywhere in the file::

    # repro-lint: disable-file=REP005

A bare ``disable`` (no ``=RULES``) silences every rule for that line.
Suppression is deliberate and visible in the diff — unlike a baseline
entry, which marks *inherited* debt — so reviewers can veto it.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.devtools.astcache import AstCache, module_name_for, parse_file
from repro.devtools.baseline import apply_baseline, load_baseline
from repro.devtools.findings import Finding
from repro.devtools.registry import (
    AstRule,
    FileContext,
    ProjectRule,
    Rule,
    all_rules,
    get_rule,
)
from repro.errors import ConfigError

__all__ = [
    "LintReport",
    "iter_python_files",
    "module_name_for",
    "parse_file",
    "run_lint",
]

_INLINE_RE = re.compile(r"#\s*repro-lint:\s*disable(?:=([A-Z0-9,\s]+))?")
_FILE_RE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Z0-9,\s]+)")


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    baselined: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    out: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            out.add(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d != "__pycache__" and not d.startswith(".")
                )
                for name in names:
                    if name.endswith(".py"):
                        out.add(os.path.join(root, name))
        else:
            raise ConfigError(f"no such file or directory: {path}")
    return sorted(out)


def _parse_rule_list(text: str) -> Set[str]:
    return {token.strip() for token in text.split(",") if token.strip()}


def _suppressions(ctx: FileContext) -> Tuple[Dict[int, Optional[Set[str]]], Set[str]]:
    """Per-line and file-wide suppressed rule ids.

    The per-line map holds ``None`` for a bare ``disable`` (all rules).
    """
    by_line: Dict[int, Optional[Set[str]]] = {}
    file_wide: Set[str] = set()
    for lineno, text in enumerate(ctx.lines, start=1):
        if "#" not in text:
            continue
        file_match = _FILE_RE.search(text)
        if file_match:
            file_wide |= _parse_rule_list(file_match.group(1))
            continue
        inline_match = _INLINE_RE.search(text)
        if inline_match:
            rules_text = inline_match.group(1)
            by_line[lineno] = (
                _parse_rule_list(rules_text) if rules_text else None
            )
    return by_line, file_wide


def _is_suppressed(
    finding: Finding,
    by_line: Dict[int, Optional[Set[str]]],
    file_wide: Set[str],
) -> bool:
    if finding.rule in file_wide:
        return True
    if finding.line in by_line:
        rules = by_line[finding.line]
        return rules is None or finding.rule in rules
    return False


def run_lint(
    paths: Sequence[str],
    rule_ids: Optional[Iterable[str]] = None,
    baseline_path: Optional[str] = None,
    cache: Optional[AstCache] = None,
) -> LintReport:
    """Lint every Python file under ``paths`` and return the report.

    ``rule_ids`` restricts the run to a subset of rules; ``baseline_path``
    filters out findings recorded in that baseline file.  ``cache`` lets a
    caller reuse parses across runs (``--fix`` re-lints through the same
    cache after invalidating only the rewritten files); without one a
    fresh cache still guarantees each file parses exactly once within the
    run, shared by every per-file and project-wide rule.
    """
    if rule_ids is not None:
        rules: List[Rule] = [get_rule(rule_id) for rule_id in sorted(set(rule_ids))]
    else:
        rules = all_rules()
    ast_rules = [rule for rule in rules if isinstance(rule, AstRule)]
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]

    if cache is None:
        cache = AstCache()
    contexts = cache.contexts(iter_python_files(paths))
    report = LintReport(files_scanned=len(contexts))

    raw: List[Tuple[Finding, FileContext]] = []
    by_path = {ctx.path: ctx for ctx in contexts}
    for ctx in contexts:
        for rule in ast_rules:
            if not rule.applies_to(ctx):
                continue
            for finding in rule.check(ctx):
                raw.append((finding, ctx))
    for rule in project_rules:
        for finding in rule.check_project(contexts):
            ctx = by_path[finding.file]
            if rule.applies_to(ctx):
                raw.append((finding, ctx))

    kept: List[Finding] = []
    suppression_cache: Dict[str, Tuple[Dict, Set[str]]] = {}
    for finding, ctx in raw:
        if ctx.path not in suppression_cache:
            suppression_cache[ctx.path] = _suppressions(ctx)
        by_line, file_wide = suppression_cache[ctx.path]
        if _is_suppressed(finding, by_line, file_wide):
            report.suppressed += 1
        else:
            kept.append(finding)

    if baseline_path is not None:
        fingerprints = load_baseline(baseline_path)
        before = len(kept)
        kept = apply_baseline(kept, fingerprints)
        report.baselined = before - len(kept)

    report.findings = sorted(kept, key=Finding.sort_key)
    return report
