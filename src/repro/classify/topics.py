"""Topic classification (the paper used Mallet and uClassify).

A word-level multinomial naive Bayes over the 18 categories of Fig 2.  Only
English pages are topic-classified, as in the paper; the TorHost default
page is detected separately and excluded from the topic distribution.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.classify.naive_bayes import MultinomialNaiveBayes
from repro.classify.tokenize import word_tokens
from repro.errors import ClassificationError
from repro.population.corpus import TORHOST_DEFAULT_PAGE


def is_torhost_default(text: str) -> bool:
    """Whether ``text`` is the TorHost free-hosting default page.

    The paper found 805 English destinations "showed the default page of the
    Torhost.onion free anonymous hosting service"; identification is by
    content, not by address.
    """
    probe = " ".join(text.split()).lower()
    reference = " ".join(TORHOST_DEFAULT_PAGE.split()).lower()
    return probe == reference or (
        "torhost" in probe and "default placeholder" in probe
    )


class TopicClassifier:
    """Word-level topic classifier over the Fig 2 categories."""

    def __init__(self, model: Optional[MultinomialNaiveBayes] = None) -> None:
        self._model = model if model is not None else MultinomialNaiveBayes()

    @property
    def topics(self) -> List[str]:
        """Topic labels the classifier knows."""
        return self._model.classes

    def fit(self, texts: Iterable[str], labels: Iterable[str]) -> "TopicClassifier":
        """Train on raw texts with topic labels, one text at a time."""
        self._model.fit((word_tokens(text) for text in texts), labels)
        return self

    def classify(self, text: str) -> str:
        """Topic of ``text``."""
        if not text.strip():
            raise ClassificationError("cannot classify empty text")
        return self._model.predict(word_tokens(text))
