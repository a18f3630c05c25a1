"""Tests for repro.classify.naive_bayes."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.classify.naive_bayes import MultinomialNaiveBayes
from repro.errors import ClassificationError


def fitted_model():
    docs = [
        ["cat", "cat", "meow"],
        ["cat", "purr"],
        ["dog", "woof", "dog"],
        ["dog", "bark"],
    ]
    labels = ["cat", "cat", "dog", "dog"]
    return MultinomialNaiveBayes().fit(docs, labels)


class TestFit:
    def test_classes_sorted(self):
        assert fitted_model().classes == ["cat", "dog"]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ClassificationError):
            MultinomialNaiveBayes().fit([["a"]], ["x", "y"])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ClassificationError):
            MultinomialNaiveBayes().fit([], [])

    def test_tokenless_corpus_rejected(self):
        with pytest.raises(ClassificationError):
            MultinomialNaiveBayes().fit([[], []], ["a", "b"])

    def test_bad_smoothing_rejected(self):
        with pytest.raises(ClassificationError):
            MultinomialNaiveBayes(smoothing=0)

    def test_vocabulary_size(self):
        assert fitted_model().vocabulary_size == 6


def fitted_state(model):
    """Every field a fit writes, for equality checks."""
    return (
        model.classes,
        model._vocabulary,
        model._log_prior,
        model._log_likelihood,
        model._log_unseen,
        model._token_rows,
    )


_docs = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=6),
    min_size=1,
    max_size=6,
)


class TestRefit:
    def test_refit_forgets_the_previous_vocabulary(self):
        model = MultinomialNaiveBayes().fit([["x", "y"], ["z"]], ["p", "q"])
        model.fit([["x"], ["x"]], ["p", "q"])
        fresh = MultinomialNaiveBayes().fit([["x"], ["x"]], ["p", "q"])
        assert model.vocabulary_size == 1
        assert model._token_rows == fresh._token_rows
        assert model._log_unseen == fresh._log_unseen

    def test_refit_drops_classes_it_no_longer_sees(self):
        model = MultinomialNaiveBayes().fit([["x"], ["y"], ["z"]], ["p", "q", "r"])
        model.fit([["x"], ["y"]], ["p", "q"])
        assert model.classes == ["p", "q"]
        assert set(model._log_prior) == {"p", "q"}
        assert set(model.log_scores(["x"])) == {"p", "q"}

    @given(_docs, _docs, st.data())
    def test_refit_equals_a_fresh_fit(self, first, second, data):
        first_labels = data.draw(
            st.lists(st.sampled_from("PQR"), min_size=len(first), max_size=len(first))
        )
        second_labels = data.draw(
            st.lists(st.sampled_from("PQR"), min_size=len(second), max_size=len(second))
        )
        model = MultinomialNaiveBayes().fit(first, first_labels)
        model.fit(second, second_labels)
        fresh = MultinomialNaiveBayes().fit(second, second_labels)
        assert fitted_state(model) == fitted_state(fresh)

    def test_failed_refit_keeps_the_fitted_model(self):
        model = fitted_model()
        before = fitted_state(model)
        with pytest.raises(ClassificationError):
            model.fit([[], []], ["a", "b"])
        assert fitted_state(model) == before


class TestOnePassFit:
    """``fit`` counts each document as it arrives, so any iterables do."""

    DOCS = [["cat", "meow"], ["dog", "woof", "dog"], ["cat", "purr", "cat"], ["bark"]]
    LABELS = ["cat", "dog", "cat", "dog"]

    def test_generators_fit_like_lists(self):
        from_lists = MultinomialNaiveBayes().fit(self.DOCS, self.LABELS)
        from_generators = MultinomialNaiveBayes().fit(
            (iter(doc) for doc in self.DOCS), iter(self.LABELS)
        )
        assert fitted_state(from_generators) == fitted_state(from_lists)
        # Dict order is part of the fitted artifact, not just its contents.
        assert list(from_generators._token_rows) == list(from_lists._token_rows)
        assert [list(row) for row in from_generators._log_likelihood.values()] == [
            list(row) for row in from_lists._log_likelihood.values()
        ]

    @pytest.mark.parametrize(
        "docs, labels",
        [(DOCS, LABELS[:-1]), (DOCS[:-1], LABELS)],
        ids=["more-documents", "more-labels"],
    )
    def test_length_mismatch_rejected(self, docs, labels):
        with pytest.raises(ClassificationError, match="differ in length"):
            MultinomialNaiveBayes().fit(iter(docs), iter(labels))

    def test_empty_generator_rejected(self):
        with pytest.raises(ClassificationError, match="empty corpus"):
            MultinomialNaiveBayes().fit((doc for doc in []), iter([]))

    def test_failed_refit_keeps_the_fitted_model(self):
        model = fitted_model()
        before = fitted_state(model)
        with pytest.raises(ClassificationError):
            # Fails only after three documents have been counted.
            model.fit(iter(self.DOCS), iter(self.LABELS[:-1]))
        assert fitted_state(model) == before
        assert model.predict(["meow", "purr"]) == "cat"


class TestPredict:
    def test_obvious_cases(self):
        model = fitted_model()
        assert model.predict(["meow", "purr"]) == "cat"
        assert model.predict(["woof", "bark"]) == "dog"

    def test_unfitted_raises(self):
        with pytest.raises(ClassificationError):
            MultinomialNaiveBayes().predict(["x"])

    def test_oov_tokens_ignored(self):
        model = fitted_model()
        assert model.predict(["meow", "zebra", "quux"]) == "cat"

    def test_all_oov_falls_back_to_prior(self):
        model = fitted_model()
        # Equal priors → deterministic alphabetical tie-break.
        assert model.predict(["zebra"]) == "cat"

    def test_is_fitted_only_after_fit(self):
        assert not MultinomialNaiveBayes().is_fitted
        assert fitted_model().is_fitted

    def test_log_scores_finite(self):
        scores = fitted_model().log_scores(["cat", "dog"])
        assert all(math.isfinite(v) for v in scores.values())


class TestProperties:
    @settings(max_examples=40)
    @given(st.permutations(["cat", "meow", "purr", "purr", "meow"]))
    def test_prediction_invariant_to_token_order(self, tokens):
        model = fitted_model()
        assert model.predict(tokens) == model.predict(sorted(tokens))

    @settings(max_examples=40)
    @given(
        st.lists(st.sampled_from(["cat", "dog", "meow", "woof"]), min_size=1, max_size=10)
    )
    def test_scores_are_consistent_with_prediction(self, tokens):
        model = fitted_model()
        scores = model.log_scores(tokens)
        predicted = model.predict(tokens)
        assert scores[predicted] == max(scores.values())
