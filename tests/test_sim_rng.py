"""Tests for repro.sim.rng — stream derivation determinism/independence."""

from hypothesis import given, strategies as st

from repro.sim.rng import derive_rng, derive_seed, split_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", "b") == derive_seed(7, "a", "b")

    def test_different_seeds_differ(self):
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_different_paths_differ(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_path_elements_are_not_concatenated(self):
        # ("ab",) and ("a", "b") must be distinct streams.
        assert derive_seed(7, "ab") != derive_seed(7, "a", "b")

    def test_empty_path_ok(self):
        assert isinstance(derive_seed(7), int)

    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
    def test_seed_fits_64_bits(self, seed, path):
        assert 0 <= derive_seed(seed, path) < 2**64


class TestDeriveRng:
    def test_same_stream_same_draws(self):
        a = derive_rng(1, "x")
        b = derive_rng(1, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_sibling_streams_are_independent(self):
        a = derive_rng(1, "x")
        b = derive_rng(1, "y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_consuming_one_stream_does_not_affect_sibling(self):
        first = derive_rng(1, "x")
        _ = [first.random() for _ in range(100)]
        fresh = derive_rng(1, "y")
        expected = derive_rng(1, "y")
        assert fresh.random() == expected.random()


class TestSplitRng:
    def test_split_is_deterministic(self):
        a = split_rng(derive_rng(7, "parent"), "child")
        b = split_rng(derive_rng(7, "parent"), "child")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_paths_decorrelate_siblings(self):
        parent = derive_rng(7, "parent")
        state = parent.getstate()
        left = split_rng(parent, "left")
        parent.setstate(state)
        right = split_rng(parent, "right")
        assert [left.random() for _ in range(5)] != [
            right.random() for _ in range(5)
        ]

    def test_parent_advances_one_draw_regardless_of_path(self):
        one, two = derive_rng(3, "p"), derive_rng(3, "p")
        split_rng(one, "a")
        split_rng(two, "completely", "different", "path")
        assert one.random() == two.random()
