"""Multinomial naive Bayes, from scratch.

The shared core of both classifiers.  Log-space scoring with Laplace
smoothing; out-of-vocabulary tokens fall back to the smoothed unseen-token
probability so exotic inputs degrade gracefully instead of crashing.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.errors import ClassificationError

#: Pads the shorter of ``fit``'s documents and labels.
_MISSING = object()


@dataclass
class MultinomialNaiveBayes:
    """A multinomial naive Bayes classifier over token sequences."""

    smoothing: float = 1.0
    _classes: List[str] = field(default_factory=list)
    _log_prior: Dict[str, float] = field(default_factory=dict)
    _log_likelihood: Dict[str, Dict[str, float]] = field(default_factory=dict)
    _log_unseen: Dict[str, float] = field(default_factory=dict)
    _vocabulary: set = field(default_factory=set)
    #: token -> per-class log likelihoods in ``_classes`` order.  Scoring a
    #: document touches every (token, class) pair; one dict probe per token
    #: instead of one per pair is what keeps the classify stage linear in
    #: practice.  The row values are exactly the ``_log_likelihood`` /
    #: ``_log_unseen`` lookups the per-pair loop would have made, so scores
    #: are bit-identical.
    _token_rows: Dict[str, Tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.smoothing <= 0:
            raise ClassificationError(f"smoothing must be positive: {self.smoothing}")

    @property
    def classes(self) -> List[str]:
        """Known class labels (sorted)."""
        return list(self._classes)

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return bool(self._classes)

    @property
    def vocabulary_size(self) -> int:
        """Distinct training tokens."""
        return len(self._vocabulary)

    def fit(
        self,
        documents: Iterable[Iterable[str]],
        labels: Iterable[str],
    ) -> "MultinomialNaiveBayes":
        """Train on ``documents`` (token iterables) with parallel ``labels``.

        One pass: each document is counted as it arrives and dropped, so a
        generator of documents never holds the corpus's tokens at once.
        The fitted fields are assigned only after the whole corpus has been
        counted and checked, so a failed refit leaves the previous fit intact.
        """
        # Per-class token counts, classes in first-seen order, and each
        # class's document count.
        token_counts: Dict[str, Counter] = {}
        class_doc_counts: Counter = Counter()
        # A sentinel, not zip(strict=True): its ValueError would be
        # indistinguishable from one raised by a document generator.
        pairs = itertools.zip_longest(documents, labels, fillvalue=_MISSING)
        for tokens, label in pairs:
            if tokens is _MISSING or label is _MISSING:
                seen = sum(class_doc_counts.values())
                missing = "documents" if tokens is _MISSING else "labels"
                raise ClassificationError(
                    f"documents and labels differ in length: {missing} ran out after {seen}"
                )
            token_counts.setdefault(label, Counter()).update(tokens)
            class_doc_counts[label] += 1
        if not class_doc_counts:
            raise ClassificationError("cannot fit on an empty corpus")
        vocabulary = set().union(*token_counts.values())
        if not vocabulary:
            raise ClassificationError("training corpus contains no tokens")

        # Every fitted field is rebuilt from this corpus alone: a refit
        # must not inherit the previous fit's vocabulary or rows.
        self._classes = sorted(class_doc_counts)
        self._vocabulary = vocabulary
        self._log_prior = {}
        self._log_likelihood = {}
        self._log_unseen = {}
        total_docs = sum(class_doc_counts.values())
        vocab = len(vocabulary)
        for label in self._classes:
            self._log_prior[label] = math.log(class_doc_counts[label] / total_docs)
            counts = token_counts[label]
            denominator = sum(counts.values()) + self.smoothing * vocab
            self._log_likelihood[label] = {
                token: math.log((count + self.smoothing) / denominator)
                for token, count in counts.items()
            }
            self._log_unseen[label] = math.log(self.smoothing / denominator)
        self._token_rows = {
            token: tuple(
                self._log_likelihood[label].get(token, self._log_unseen[label])
                for label in self._classes
            )
            for token in sorted(vocabulary)
        }
        return self

    def log_scores(self, tokens: Iterable[str]) -> Dict[str, float]:
        """Unnormalised log posterior per class."""
        if not self.is_fitted:
            raise ClassificationError("classifier is not fitted")
        rows = self._token_rows
        # OOV tokens shift every class equally — drop them up front.
        matched = [row for row in map(rows.get, tokens) if row is not None]
        # sum() adds left to right from the prior, one token at a time —
        # the same per-class addition order as the per-pair loop, so the
        # floats come out bit-identical; map/itemgetter keep the inner
        # loop at C speed.
        return {
            label: sum(map(operator.itemgetter(column), matched), self._log_prior[label])
            for column, label in enumerate(self._classes)
        }

    def predict(self, tokens: Iterable[str]) -> str:
        """Most probable class (ties broken alphabetically for determinism)."""
        scores = self.log_scores(list(tokens))
        return min(scores, key=lambda label: (-scores[label], label))
