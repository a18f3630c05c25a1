"""Tests for repro.classify.topics — the Mallet/uClassify stand-in."""

import pytest

from repro.classify.naive_bayes import MultinomialNaiveBayes
from repro.classify.topics import TopicClassifier, is_torhost_default
from repro.classify.training import topic_training_corpus
from repro.errors import ClassificationError
from repro.population.content import synth_topic_page
from repro.population.corpus import TOPICS, TORHOST_DEFAULT_PAGE
from repro.sim.rng import derive_rng


class TestTopicClassifier:
    def test_knows_all_18_topics(self, topic_classifier):
        assert sorted(topic_classifier.topics) == sorted(TOPICS)

    def test_accuracy_on_held_out_pages(self, topic_classifier):
        rng = derive_rng(88, "eval")
        correct = total = 0
        for topic in TOPICS:
            for _ in range(5):
                text = synth_topic_page(topic, rng, word_count=150)
                correct += topic_classifier.classify(text) == topic
                total += 1
        assert correct / total >= 0.9

    def test_robust_to_cross_topic_noise(self, topic_classifier):
        rng = derive_rng(89, "eval")
        noisy = synth_topic_page(
            "drugs", rng, word_count=200, topical_fraction=0.4, noise_fraction=0.25
        )
        assert topic_classifier.classify(noisy) == "drugs"

    def test_empty_rejected(self, topic_classifier):
        with pytest.raises(ClassificationError):
            topic_classifier.classify("")

    def test_every_topic_recalled_on_held_out_pages(self, topic_classifier):
        rng = derive_rng(0xE7A1, "eval", "topics")
        for topic in TOPICS:
            pages = [synth_topic_page(topic, rng, word_count=150) for _ in range(4)]
            recalled = sum(topic_classifier.classify(text) == topic for text in pages)
            assert recalled / len(pages) >= 0.75, topic

    def test_unfitted_classifier_rejected(self):
        with pytest.raises(ClassificationError):
            TopicClassifier().classify("some words about chess")

    def test_wraps_the_model_it_is_given(self):
        model = MultinomialNaiveBayes(smoothing=0.5)
        classifier = TopicClassifier(model).fit(
            ["chess openings endgames", "bitcoin wallet mixer"], ["games", "money"]
        )
        assert model.is_fitted
        assert classifier.topics == ["games", "money"]
        assert classifier.classify("an endgame study") == "games"


class TestTopicTrainingCorpus:
    def test_every_topic_gets_the_same_number_of_documents(self):
        texts, labels = topic_training_corpus(docs_per_topic=2, words_per_doc=20)
        assert len(texts) == len(labels) == 2 * len(TOPICS)
        assert sorted(set(labels)) == sorted(TOPICS)
        assert all(labels.count(topic) == 2 for topic in TOPICS)

    def test_corpus_is_a_fixed_artifact(self):
        first = topic_training_corpus(docs_per_topic=1, words_per_doc=30)
        assert topic_training_corpus(docs_per_topic=1, words_per_doc=30) == first

    def test_documents_have_the_requested_length(self):
        texts, _labels = topic_training_corpus(docs_per_topic=1, words_per_doc=25)
        assert all(len(text.split()) == 25 for text in texts)


class TestTorhostDefaultDetection:
    def test_exact_page_detected(self):
        assert is_torhost_default(TORHOST_DEFAULT_PAGE)

    def test_whitespace_invariant(self):
        mangled = "  " + TORHOST_DEFAULT_PAGE.replace(" ", "   ") + " "
        assert is_torhost_default(mangled)

    def test_ordinary_page_not_default(self):
        assert not is_torhost_default("a chess club on the onion network " * 3)

    def test_mention_alone_not_enough(self):
        assert not is_torhost_default("I migrated away from torhost last year")
