"""``repro lint --fix``: apply the mechanical rewrites findings carry.

One rule knows its fix today: REP005 rewrites ``list(set(...))`` /
``tuple(set(...))`` materialisations to ``sorted(...)``.

Fixes are source-span replacements (ast coordinates) in the finding's
own file.  Per file they are applied bottom-up so earlier spans stay
valid, and overlapping fixes — nested ``list(set(list(set(xs))))`` — are
skipped (first in document order wins) for the CLI's re-lint to pick
up.  Applying the same fixes twice is a no-op by construction: the
second lint run no longer yields the findings, so there is nothing left
to apply.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.devtools.findings import Finding, Fix


@dataclass
class FixResult:
    """What one ``--fix`` pass did."""

    applied: int = 0
    skipped_overlaps: int = 0
    files: List[str] = field(default_factory=list)


def _span_key(fix: Fix) -> Tuple[int, int, int, int]:
    return (fix.start_line, fix.start_col, fix.end_line, fix.end_col)


def _overlaps(a: Fix, b: Fix) -> bool:
    return not (
        (a.end_line, a.end_col) <= (b.start_line, b.start_col)
        or (b.end_line, b.end_col) <= (a.start_line, a.start_col)
    )


def _apply_to_text(text: str, fixes: Sequence[Fix]) -> str:
    """Apply non-overlapping fixes to one file's text, bottom-up."""
    lines = text.split("\n")
    for fix in sorted(fixes, key=_span_key, reverse=True):
        start = fix.start_line - 1
        end = fix.end_line - 1
        prefix = lines[start][: fix.start_col]
        suffix = lines[end][fix.end_col :]
        replacement_lines = (prefix + fix.replacement + suffix).split("\n")
        lines[start : end + 1] = replacement_lines
    return "\n".join(lines)


def apply_fixes(findings: Sequence[Finding]) -> FixResult:
    """Apply every finding's fix to disk and report what changed.

    Overlapping fixes keep the first in document order and count the
    rest as skipped — a re-run after the first application picks those
    up if their findings persist.
    """
    by_file: Dict[str, List[Fix]] = {}
    for finding in findings:
        if finding.fix is not None:
            by_file.setdefault(finding.file, []).append(finding.fix)

    result = FixResult()
    for path in sorted(by_file):
        accepted: List[Fix] = []
        for fix in sorted(by_file[path], key=_span_key):
            if any(_overlaps(fix, kept) for kept in accepted):
                result.skipped_overlaps += 1
                continue
            accepted.append(fix)
        if not accepted:
            continue
        ospath = path.replace("/", os.sep)
        with open(ospath, "r", encoding="utf-8") as handle:
            text = handle.read()
        patched = _apply_to_text(text, accepted)
        if patched != text:
            with open(ospath, "w", encoding="utf-8") as handle:
                handle.write(patched)
            result.applied += len(accepted)
            result.files.append(path)
    return result
