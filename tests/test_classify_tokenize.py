"""Tests for repro.classify.tokenize."""

from hypothesis import given, strategies as st

from repro.classify.tokenize import char_ngrams, word_tokens


class TestWordTokens:
    def test_lowercases(self):
        assert word_tokens("Hello WORLD") == ["hello", "world"]

    def test_strips_punctuation(self):
        assert word_tokens("drugs, weapons; market!") == ["drugs", "weapons", "market"]

    def test_keeps_inner_apostrophes_and_hyphens(self):
        assert word_tokens("don't open-source") == ["don't", "open-source"]

    def test_strips_edge_quotes(self):
        assert word_tokens("'quoted'") == ["quoted"]

    def test_empty(self):
        assert word_tokens("") == []

    def test_numbers_kept(self):
        assert word_tokens("error 404") == ["error", "404"]

    @given(st.text(max_size=200))
    def test_never_produces_empty_tokens(self, text):
        assert all(token for token in word_tokens(text))


class TestCharNgrams:
    def test_word_boundary_padding(self):
        assert char_ngrams("ab", orders=(2,)) == ["_a", "ab", "b_"]

    def test_multiple_orders(self):
        grams = char_ngrams("ab", orders=(1, 2))
        assert "a" in grams and "_a" in grams

    def test_no_pure_padding_grams(self):
        grams = char_ngrams("a b", orders=(1, 2, 3))
        assert "_" not in grams
        assert "__" not in grams

    def test_unicode_preserved(self):
        grams = char_ngrams("даркнет", orders=(1,))
        assert "д" in grams

    def test_short_word_with_long_order(self):
        # word shorter than order-2 padding still yields padded grams
        assert char_ngrams("a", orders=(3,)) == ["_a_"]

    def test_empty(self):
        assert char_ngrams("") == []

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60))
    def test_orders_respected(self, text):
        for gram in char_ngrams(text, orders=(2,)):
            assert len(gram) == 2


# --------------------------------------------------------------------------- #
# Parity with the plain loops
# --------------------------------------------------------------------------- #


def oracle_word_tokens(text):
    """The per-character filter every word went through before the
    alphanumeric fast path."""
    tokens = []
    for raw in text.lower().split():
        token = "".join(ch for ch in raw if ch.isalnum() or ch in "'-")
        token = token.strip("'-")
        if token:
            tokens.append(token)
    return tokens


def oracle_char_ngrams(text, orders=(1, 2, 3)):
    """The per-gram loop that sliced a fresh string for every gram."""
    grams = []
    for raw in text.lower().split():
        padded = f"_{raw}_"
        for order in orders:
            if order < 1:
                continue
            if len(padded) < order:
                continue
            for i in range(len(padded) - order + 1):
                gram = padded[i : i + order]
                if gram == "_" * order:
                    continue
                grams.append(gram)
    return grams


#: Words that stress the tokenizers: unicode scripts and case folding,
#: underscores (which collide with the n-gram padding), apostrophes and
#: hyphens at the edges and inside, digits, and one-letter words shorter
#: than the higher orders.
_TRICKY_WORDS = [
    "a", "ab", "a_b", "__", "_", "_a", "a_", "don't", "'quoted'", "-", "--",
    "open-source", "ß", "İstanbul", "даркнет", "匿名", "サービス", "خدمة",
    "404", "x²", "½", "ǅ", "é", "'-'", "a'b-c",
]
_words = st.one_of(
    st.sampled_from(_TRICKY_WORDS),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8
    ),
)
_texts = st.lists(_words, max_size=12).map(" ".join) | st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60
)
_ORDERS = [(1, 2, 3), (2,), (0, 4), (3, 1), (5,)]


class TestOracleParity:
    @given(_texts)
    def test_word_tokens_match_the_per_character_loop(self, text):
        assert word_tokens(text) == oracle_word_tokens(text)

    @given(_texts, st.sampled_from(_ORDERS))
    def test_char_ngrams_match_the_per_gram_loop(self, text, orders):
        # Same grams in the same order: naive Bayes sums scores in gram
        # order, so order is part of the bit-identity contract.
        assert char_ngrams(text, orders) == oracle_char_ngrams(text, orders)

    @given(_texts, st.sampled_from(_ORDERS))
    def test_orders_from_a_generator(self, text, orders):
        # A generator is read once, up front, and applies to every word.
        # (The per-gram loop re-iterated ``orders`` per word, so a
        # generator ran dry after the first; the tuple is the intent.)
        grams = char_ngrams(text, (order for order in orders))
        assert grams == oracle_char_ngrams(text, tuple(orders))

    def test_edge_words_examples(self):
        for word in _TRICKY_WORDS:
            for orders in _ORDERS:
                assert char_ngrams(word, orders) == oracle_char_ngrams(word, orders)
            assert word_tokens(word) == oracle_word_tokens(word)

    def test_repeated_words_share_gram_strings(self):
        grams = char_ngrams("onion onion", orders=(3,))
        half = len(grams) // 2
        assert grams[:half] == grams[half:]
        assert all(a is b for a, b in zip(grams[:half], grams[half:]))

    def test_ngram_cache_is_bounded(self):
        from repro.classify.tokenize import _word_ngrams

        assert _word_ngrams.cache_info().maxsize is not None
