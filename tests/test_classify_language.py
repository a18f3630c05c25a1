"""Tests for repro.classify.language — the Langdetect stand-in."""

import pytest

from repro.classify.language import LanguageDetector
from repro.classify.training import language_training_corpus
from repro.errors import ClassificationError
from repro.population.content import synth_language_page
from repro.population.corpus import LANGUAGES
from repro.sim.rng import derive_rng


class TestLanguageDetector:
    def test_knows_all_17_languages(self, language_detector):
        assert sorted(language_detector.languages) == sorted(LANGUAGES)

    def test_accuracy_on_held_out_pages(self, language_detector):
        rng = derive_rng(77, "eval")
        correct = total = 0
        for language in LANGUAGES:
            for _ in range(5):
                text = synth_language_page(language, rng, word_count=100)
                correct += language_detector.detect(text) == language
                total += 1
        assert correct / total >= 0.95

    def test_every_language_recalled_on_held_out_pages(self, language_detector):
        rng = derive_rng(0xE7A1, "eval", "language")
        for language in LANGUAGES:
            pages = [synth_language_page(language, rng, word_count=120) for _ in range(4)]
            recalled = sum(language_detector.detect(text) == language for text in pages)
            assert recalled / len(pages) >= 0.75, language

    def test_short_text_still_classified(self, language_detector):
        assert language_detector.detect("привет мир анонимность") == "ru"

    def test_empty_text_rejected(self, language_detector):
        with pytest.raises(ClassificationError):
            language_detector.detect("   ")

    def test_mixed_page_goes_to_majority_language(self, language_detector):
        rng = derive_rng(79, "eval")
        mostly_french = synth_language_page(
            "fr", rng, word_count=150, native_fraction=0.9
        )
        assert language_detector.detect(mostly_french) == "fr"

    def test_scripts_are_decisive(self, language_detector):
        assert language_detector.detect("匿名 网络 服务 安全 隐藏") == "zh"
        assert language_detector.detect("サービス 匿名 ネットワーク ようこそ") == "ja"
        assert language_detector.detect("خدمة أمن شبكة مخفي حرية") == "ar"


class TestLanguageTrainingCorpus:
    def test_every_language_gets_the_same_number_of_documents(self):
        texts, labels = language_training_corpus(docs_per_language=2, words_per_doc=15)
        assert len(texts) == len(labels) == 2 * len(LANGUAGES)
        assert sorted(set(labels)) == sorted(LANGUAGES)
        assert all(labels.count(language) == 2 for language in LANGUAGES)

    def test_corpus_is_a_fixed_artifact(self):
        first = language_training_corpus(docs_per_language=1, words_per_doc=20)
        assert language_training_corpus(docs_per_language=1, words_per_doc=20) == first

    def test_unfitted_detector_rejected(self):
        with pytest.raises(ClassificationError):
            LanguageDetector().detect("bonjour tout le monde")
