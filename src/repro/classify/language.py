"""Language identification (the paper used Langdetect).

A character-n-gram multinomial naive Bayes over the 17 languages of
Section IV.  Like Langdetect, it reads orthography: Cyrillic n-grams vote
Russian, kana vote Japanese, "ß"/"ü" vote German, and so on; for languages
sharing a script the affix n-grams discriminate.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.classify.naive_bayes import MultinomialNaiveBayes
from repro.classify.tokenize import char_ngrams
from repro.errors import ClassificationError


class LanguageDetector:
    """Character-n-gram language classifier."""

    def __init__(
        self,
        model: Optional[MultinomialNaiveBayes] = None,
        orders: Tuple[int, ...] = (1, 2, 3),
    ) -> None:
        self._model = model if model is not None else MultinomialNaiveBayes()
        self._orders = orders

    @property
    def languages(self) -> List[str]:
        """Language codes the detector knows."""
        return self._model.classes

    def fit(self, texts: Iterable[str], labels: Iterable[str]) -> "LanguageDetector":
        """Train on raw texts with language-code labels, one text at a time."""
        self._model.fit((char_ngrams(text, self._orders) for text in texts), labels)
        return self

    def detect(self, text: str) -> str:
        """Language code of ``text``."""
        if not text.strip():
            raise ClassificationError("cannot detect language of empty text")
        return self._model.predict(char_ngrams(text, self._orders))
