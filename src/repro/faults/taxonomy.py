"""The failure taxonomy every retry-aware consumer reports.

The paper's aggregate numbers hide *why* probes failed; Honey Onions and
Dizzy both show that the split between transient and permanent failure is
what decides whether a measurement under-counts.  Every component that
adopts a :class:`~repro.faults.retry.RetryPolicy` classifies each failed
(or recovered) operation into one of three buckets:

* ``TRANSIENT_RECOVERED`` — the operation failed at least once and then
  succeeded within the retry budget.  Without retries these would have
  been silently dropped observations.
* ``RETRIES_EXHAUSTED`` — every permitted attempt failed with a
  *retryable* outcome (timeouts, truncated conversations).  The ground
  truth may well be an open port; the pipeline could not prove it.
* ``PERMANENT`` — the failure is definitive (connection refused, or the
  descriptor stayed gone after a re-fetch): retrying cannot help.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple


class FailureCategory(enum.Enum):
    """How one retried operation ultimately failed (or recovered)."""

    TRANSIENT_RECOVERED = "transient-recovered"
    RETRIES_EXHAUSTED = "retries-exhausted"
    PERMANENT = "permanent"


@dataclass
class FailureTaxonomy:
    """Counts per :class:`FailureCategory` for one pipeline stage."""

    transient_recovered: int = 0
    retries_exhausted: int = 0
    permanent: int = 0
    #: Total extra connection attempts spent on retries (beyond the first).
    retry_attempts: int = 0

    def record(self, category: Optional[FailureCategory], attempts: int = 1) -> None:
        """Account one classified operation; ``None`` (clean success) is a no-op.

        ``attempts`` is the total attempts the operation consumed; everything
        beyond the first is tallied as retry spend.
        """
        if attempts > 1:
            self.retry_attempts += attempts - 1
        if category is FailureCategory.TRANSIENT_RECOVERED:
            self.transient_recovered += 1
        elif category is FailureCategory.RETRIES_EXHAUSTED:
            self.retries_exhausted += 1
        elif category is FailureCategory.PERMANENT:
            self.permanent += 1

    def merge(self, other: "FailureTaxonomy") -> None:
        """Fold another stage's counts into this one."""
        self.transient_recovered += other.transient_recovered
        self.retries_exhausted += other.retries_exhausted
        self.permanent += other.permanent
        self.retry_attempts += other.retry_attempts

    @property
    def total(self) -> int:
        """Operations that failed at least once (recovered or not)."""
        return self.transient_recovered + self.retries_exhausted + self.permanent

    def rows(self) -> Iterator[Tuple[str, int]]:
        """(label, count) rows in fixed order, for report tables."""
        yield "transient recovered", self.transient_recovered
        yield "retries exhausted", self.retries_exhausted
        yield "permanent failures", self.permanent
