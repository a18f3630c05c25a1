"""Built-in training corpora.

The paper's tools shipped pre-trained (Langdetect's language profiles,
uClassify's hosted models).  The offline equivalent: synthesise labelled
training documents from the corpus vocabularies with a *fixed internal
seed*, decoupled from every experiment seed — the classifiers are the same
pre-trained artifact for all experiments, never fitted on the pages they
will classify.

Training is also a pure function of this code, so each model is trained
once per process and shared by every caller (pipelines, service epochs,
crash incarnations).  The shared models are read-only: refitting one
would change it for all of them.  Training is deliberately not a store
stage: a cold store would never hit it and a warm replay never trains.

The corpora are plain text; each model tokenises one document at a time
as ``fit`` counts it, so training never holds a corpus's tokens at once.
Training both models this way takes a fresh interpreter (Python 3.11)
from 18 to 23 MB of peak RSS.  Holding every document's tokens (1.2 M
n-gram references for the language model alone) took it to 42 MB, and
the allocator kept most of that for the rest of the run.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

from repro.classify.language import LanguageDetector
from repro.classify.topics import TopicClassifier
from repro.population.content import synth_language_page, synth_topic_page
from repro.population.corpus import LANGUAGES, TOPICS
from repro.sim.rng import derive_rng

_TRAINING_SEED = 0xC1A551F1  # fixed: the shipped, pre-trained model


def language_training_corpus(
    docs_per_language: int = 40, words_per_doc: int = 120
) -> Tuple[List[str], List[str]]:
    """(texts, labels) covering all 17 languages."""
    rng = derive_rng(_TRAINING_SEED, "training", "language")
    texts: List[str] = []
    labels: List[str] = []
    for language in LANGUAGES:
        for _ in range(docs_per_language):
            texts.append(
                synth_language_page(language, rng, word_count=words_per_doc)
            )
            labels.append(language)
    return texts, labels


def topic_training_corpus(
    docs_per_topic: int = 60, words_per_doc: int = 150
) -> Tuple[List[str], List[str]]:
    """(texts, labels) covering all 18 topics."""
    rng = derive_rng(_TRAINING_SEED, "training", "topics")
    texts: List[str] = []
    labels: List[str] = []
    for topic in TOPICS:
        for _ in range(docs_per_topic):
            texts.append(synth_topic_page(topic, rng, word_count=words_per_doc))
            labels.append(topic)
    return texts, labels


@functools.lru_cache(maxsize=1)
def build_language_detector() -> LanguageDetector:
    """The shipped language model (deterministic; trained once per process)."""
    texts, labels = language_training_corpus()
    return LanguageDetector().fit(texts, labels)


@functools.lru_cache(maxsize=1)
def build_topic_classifier() -> TopicClassifier:
    """The shipped topic model (deterministic; trained once per process)."""
    texts, labels = topic_training_corpus()
    return TopicClassifier().fit(texts, labels)
