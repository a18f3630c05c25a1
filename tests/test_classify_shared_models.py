"""The shipped classifiers: trained cheaply, and once per process."""

import tracemalloc

from repro.classify import training
from repro.classify.tokenize import _word_ngrams
from repro.experiments.pipeline import MeasurementPipeline
from repro.service import EpochController

from tests.conftest import make_service_config

#: Peak traced allocation of one language-model training run.  Slicing a
#: fresh string per n-gram peaked at 56-68 MB (Python 3.10-3.12); with
#: per-word n-grams shared it is about 14 MB.
TRAINING_PEAK_LIMIT_MB = 32


def test_language_training_peak_memory_is_bounded():
    training.build_language_detector.cache_clear()
    _word_ngrams.cache_clear()
    tracemalloc.start()
    try:
        training.build_language_detector()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < TRAINING_PEAK_LIMIT_MB


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
    config = make_service_config(epochs=2, crash_profile="none")
    EpochController(config, str(tmp_path / "store")).run()
    assert len(calls) == 1
