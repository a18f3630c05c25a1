"""The shipped classifiers: trained cheaply, and once per process."""

import tracemalloc

from repro.classify import training
from repro.classify.tokenize import _word_ngrams
from repro.experiments.pipeline import MeasurementPipeline

from tests.conftest import make_service_controller

#: Peak traced allocation of one shipped model's training run.  Slicing a
#: fresh string per n-gram peaked at 56-68 MB (Python 3.10-3.12); with
#: per-word n-grams shared, about 14 MB; with documents streamed into the
#: counters rather than tokenised up front, 3.3 MB (language) and 2.6 MB
#: (topic) on Python 3.11.
TRAINING_PEAK_LIMIT_MB = 8


def training_peak_mb(builder):
    """Traced peak of one fresh training run of a shipped model, in MB."""
    builder.cache_clear()
    _word_ngrams.cache_clear()
    tracemalloc.start()
    try:
        builder()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def test_language_training_peak_memory_is_bounded():
    assert training_peak_mb(training.build_language_detector) < TRAINING_PEAK_LIMIT_MB


def test_topic_training_peak_memory_is_bounded():
    assert training_peak_mb(training.build_topic_classifier) < TRAINING_PEAK_LIMIT_MB


def test_pipelines_share_the_trained_models(small_population):
    first = MeasurementPipeline(seed=1, population=small_population)
    second = MeasurementPipeline(seed=2, population=small_population)
    assert first.language_detector is second.language_detector
    assert first.topic_classifier is second.topic_classifier


def test_service_epochs_train_the_language_model_once(tmp_path, monkeypatch):
    calls = []
    corpus = training.language_training_corpus

    def counting_corpus(*args, **kwargs):
        calls.append(args)
        return corpus(*args, **kwargs)

    monkeypatch.setattr(training, "language_training_corpus", counting_corpus)
    training.build_language_detector.cache_clear()
    make_service_controller(tmp_path / "store", epochs=2, crash_profile="none").run()
    assert len(calls) == 1
