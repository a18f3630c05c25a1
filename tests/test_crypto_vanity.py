"""Tests for repro.crypto.vanity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keys import KeyPair
from repro.crypto.onion import onion_address_from_key
from repro.crypto.vanity import expected_attempts, grind_vanity_onion
from repro.errors import CryptoError
from repro.sim.rng import derive_rng

BASE32 = "abcdefghijklmnopqrstuvwxyz234567"


def grind_by_address(prefix, rng, max_attempts):
    """The oracle: derive each candidate's address and compare strings.

    ``grind_vanity_onion`` compares digest bits instead and must pick the
    same key after the same RNG draws.
    """
    for _ in range(max_attempts):
        candidate = KeyPair.generate(rng)
        if onion_address_from_key(candidate.public_der).startswith(prefix):
            return candidate
    raise CryptoError(
        f"no onion with prefix {prefix!r} after {max_attempts} attempts"
    )


def grind_outcome(grind, prefix, seed, max_attempts):
    """(key pair or error text, the stream's next draw) of one grind."""
    rng = derive_rng(seed, "vanity-parity")
    try:
        outcome = grind(prefix, rng, max_attempts)
    except CryptoError as exc:
        outcome = f"CryptoError: {exc}"
    return outcome, rng.random()


prefixes = st.text(alphabet=BASE32, min_size=1, max_size=3)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestExpectedAttempts:
    def test_single_char(self):
        assert expected_attempts("s") == 32

    def test_grows_by_32_per_char(self):
        assert expected_attempts("sil") == 32 * expected_attempts("si")


class TestGrinding:
    def test_prefix_achieved(self):
        keypair = grind_vanity_onion("si", derive_rng(1, "v"))
        assert onion_address_from_key(keypair.public_der).startswith("si")

    def test_fingerprint_is_genuine(self):
        """Vanity keys are real keys: fingerprint = SHA1(der)."""
        import hashlib

        keypair = grind_vanity_onion("a", derive_rng(2, "v"))
        assert keypair.fingerprint == hashlib.sha1(keypair.public_der).digest()

    def test_deterministic_per_stream(self):
        a = grind_vanity_onion("si", derive_rng(3, "v"))
        b = grind_vanity_onion("si", derive_rng(3, "v"))
        assert a.fingerprint == b.fingerprint

    def test_attempt_cap_respected(self):
        with pytest.raises(CryptoError):
            grind_vanity_onion("zzzz", derive_rng(4, "v"), max_attempts=5)

    def test_empty_prefix_rejected(self):
        with pytest.raises(CryptoError):
            grind_vanity_onion("", derive_rng(5, "v"))

    def test_long_prefix_rejected(self):
        with pytest.raises(CryptoError):
            grind_vanity_onion("silkroa", derive_rng(6, "v"))

    def test_invalid_characters_rejected(self):
        # 0 and 1 are not in the base32 alphabet.
        with pytest.raises(CryptoError):
            grind_vanity_onion("s1", derive_rng(7, "v"))


class TestDigestGrindParity:
    @settings(max_examples=12, deadline=None)
    @given(prefix=prefixes, seed=seeds)
    def test_same_key_and_next_draw(self, prefix, seed):
        cap = 50 * expected_attempts(prefix)
        assert grind_outcome(grind_vanity_onion, prefix, seed, None) == (
            grind_outcome(grind_by_address, prefix, seed, cap)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        prefix=prefixes,
        seed=seeds,
        max_attempts=st.integers(min_value=1, max_value=48),
    )
    def test_same_outcome_under_a_small_cap(self, prefix, seed, max_attempts):
        assert grind_outcome(grind_vanity_onion, prefix, seed, max_attempts) == (
            grind_outcome(grind_by_address, prefix, seed, max_attempts)
        )

    def test_rejected_candidates_stay_out_of_the_address_cache(self):
        onion_address_from_key.cache_clear()
        grind_vanity_onion("si", derive_rng(8, "v"))
        assert onion_address_from_key.cache_info().currsize <= 1


class TestPopulationPhishing:
    def test_phishing_clones_share_the_prefix(self, small_population):
        clones = small_population.records_in_group("silkroad-phishing")
        assert len(clones) == small_population.spec.silkroad_phishing_count
        for record in clones:
            assert record.onion.startswith("sil")
            assert record.topic == "counterfeit"

    def test_clones_are_distinct_services(self, small_population):
        clones = small_population.records_in_group("silkroad-phishing")
        onions = {record.onion for record in clones}
        assert len(onions) == len(clones)
        assert small_population.named_onions["silkroad"] not in onions
