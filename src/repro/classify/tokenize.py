"""Tokenizers for the two classification tasks."""

from __future__ import annotations

import functools
from typing import Iterable, List, Tuple

#: Distinct (word, orders) pairs whose n-grams stay cached.  The shipped
#: corpora have a few thousand distinct words; the bound only matters for
#: crawled pages full of one-off tokens.
_NGRAM_CACHE_SIZE = 1 << 16


def word_tokens(text: str) -> List[str]:
    """Lowercased word tokens, punctuation-stripped.

    >>> word_tokens("Hello, Onion World!")
    ['hello', 'onion', 'world']
    """
    tokens: List[str] = []
    for raw in text.lower().split():
        if raw.isalnum():
            # Nothing to filter or strip: the word is its own token.
            tokens.append(raw)
            continue
        token = "".join(ch for ch in raw if ch.isalnum() or ch in "'-")
        token = token.strip("'-")
        if token:
            tokens.append(token)
    return tokens


def char_ngrams(text: str, orders: Iterable[int] = (1, 2, 3)) -> List[str]:
    """Character n-grams with word-boundary padding (Langdetect-style).

    Boundary underscores make affixes distinctive ("_th", "ng_"), which is
    where much of a language's character signal lives.  Grams come word
    by word, and within a word order by order, left to right; scoring
    sums in that order, so it is part of the contract.

    >>> char_ngrams("ab", orders=(2,))
    ['_a', 'ab', 'b_']
    """
    orders = tuple(orders)
    grams: List[str] = []
    for raw in text.lower().split():
        grams.extend(_word_ngrams(raw, orders))
    return grams


@functools.lru_cache(maxsize=_NGRAM_CACHE_SIZE)
def _word_ngrams(word: str, orders: Tuple[int, ...]) -> Tuple[str, ...]:
    """The padded n-grams of one word; repeats of a word share the strings."""
    padded = f"_{word}_"
    grams: List[str] = []
    for order in orders:
        if order < 1 or len(padded) < order:
            continue
        padding = "_" * order
        for i in range(len(padded) - order + 1):
            gram = padded[i : i + order]
            if gram != padding:
                grams.append(gram)
    return tuple(grams)
