"""Tests for the error-correcting code used by the uniform Buddy test."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import corrupt_payload
from repro.hashing.ecc import ErrorCorrectingCode, hamming_distance
from repro.hashing.keys import element_key, mix64


def relative_distance(code, first, second):
    """Fraction of differing positions between two words' codewords."""
    return hamming_distance(code.encode(first), code.encode(second)) / code.codeword_bits


class TestHammingDistance:
    def test_identical(self):
        assert hamming_distance([0, 1, 1], [0, 1, 1]) == 0

    def test_all_different(self):
        assert hamming_distance([0, 0, 0], [1, 1, 1]) == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming_distance([0, 1], [0, 1, 1])


class TestErrorCorrectingCode:
    def test_codeword_length(self):
        code = ErrorCorrectingCode(word_bits=16, expansion=3)
        assert len(code.encode("node-7")) == 48

    def test_codewords_are_bits(self):
        code = ErrorCorrectingCode(word_bits=16)
        assert set(code.encode(42)) <= {0, 1}

    def test_deterministic(self):
        a = ErrorCorrectingCode(word_bits=16, seed=3)
        b = ErrorCorrectingCode(word_bits=16, seed=3)
        assert a.encode("v") == b.encode("v")

    def test_different_seeds_differ(self):
        a = ErrorCorrectingCode(word_bits=16, seed=3)
        b = ErrorCorrectingCode(word_bits=16, seed=4)
        assert a.encode("v") != b.encode("v")

    def test_identical_words_identical_codewords(self):
        code = ErrorCorrectingCode(word_bits=24)
        assert relative_distance(code, 123, 123) == 0.0

    def test_distinct_words_far_apart(self):
        """The Algorithm 6 requirement: distinct IDs differ in a constant fraction."""
        code = ErrorCorrectingCode(word_bits=32, seed=1)
        for u in range(20):
            for w in range(u + 1, 20):
                assert relative_distance(code, u, w) >= 0.25

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ErrorCorrectingCode(word_bits=0)
        with pytest.raises(ValueError):
            ErrorCorrectingCode(word_bits=8, expansion=1)

    @settings(max_examples=50, deadline=None)
    @given(u=st.integers(min_value=0, max_value=10 ** 9),
           w=st.integers(min_value=0, max_value=10 ** 9))
    def test_distance_property_random_pairs(self, u, w):
        code = ErrorCorrectingCode(word_bits=24, seed=7)
        if u == w:
            assert relative_distance(code, u, w) == 0.0
        else:
            assert relative_distance(code, u, w) >= 0.2


class TestKeys:
    def test_element_key_stable_for_ints(self):
        assert element_key(5) == 5

    def test_element_key_stable_for_strings(self):
        assert element_key("abc") == element_key("abc")

    def test_element_key_tuple_differs_from_parts(self):
        assert element_key((1, 2)) != element_key(1)

    def test_mix64_avalanche(self):
        assert mix64(1, 2) != mix64(1, 3)
        assert mix64(1, 2) != mix64(2, 1)

    def test_mix64_range(self):
        assert 0 <= mix64(123456789, 987654321) < 2 ** 64


class TestDistanceUnderFaultCorruption:
    """The code's distance property under the wire's corruption operator.

    The fault layer corrupts a codeword sent as a tuple of 0/1 entries with
    :func:`~repro.faults.corrupt_payload`, which flips each entry from its
    own sub-seed.

    Algorithm 6's analysis needs two things from the ``[3b, b, b/2]`` code
    once the channel flips bits at rate ``q``:

    * corrupted codewords are still *uniquely decodable* for small ``q``:
      the corrupted word stays far closer to its original than to any other
      codeword (inter-codeword distance is ~1/2, corruption moves ~q); and
    * corruption is *detected* (the received word differs from the sent
      codeword) at rate ``1 - (1-q)^{3b}`` — the per-word detection rate the
      eps-Buddy comparison of random positions relies on.
    """

    WORD_BITS = 24

    def _corrupted(self, code, word, rate, seed):
        return corrupt_payload(code.encode(word), rate, seed=seed)

    def test_unique_decoding_survives_five_percent_noise(self):
        code = ErrorCorrectingCode(word_bits=self.WORD_BITS, seed=3)
        words = list(range(40))
        codewords = {w: code.encode(w) for w in words}
        for word in words:
            corrupted, _ = self._corrupted(code, word, 0.05, seed=word + 1)
            own = hamming_distance(corrupted, codewords[word])
            rival = min(hamming_distance(corrupted, codewords[other])
                        for other in words if other != word)
            assert own < rival, word
            # Far inside the unique-decoding radius (~b/4 of 3b positions).
            assert own / code.codeword_bits < 0.25

    def test_detection_rate_matches_binomial_model(self):
        code = ErrorCorrectingCode(word_bits=self.WORD_BITS, seed=3)
        rate = 0.02
        trials = 400
        detected = 0
        total_flips = 0
        for word in range(trials):
            corrupted, flips = self._corrupted(code, word, rate, seed=word)
            assert (corrupted != code.encode(word)) == (flips > 0)
            detected += flips > 0
            total_flips += flips
        expected_detect = 1 - (1 - rate) ** code.codeword_bits
        assert abs(detected / trials - expected_detect) < 0.08
        expected_flips = rate * code.codeword_bits
        assert abs(total_flips / trials - expected_flips) < 0.5

    @settings(max_examples=40, deadline=None)
    @given(word=st.integers(min_value=0, max_value=10 ** 9),
           seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_corruption_preserves_codeword_shape(self, word, seed):
        code = ErrorCorrectingCode(word_bits=16, seed=11)
        codeword = code.encode(word)
        corrupted, flips = corrupt_payload(codeword, 0.1, seed=seed)
        assert len(corrupted) == len(codeword)
        assert set(corrupted) <= {0, 1}
        assert hamming_distance(corrupted, codeword) == flips
        # Determinism: the operator is a pure function of (bits, rate, seed).
        assert corrupt_payload(codeword, 0.1, seed=seed) == (corrupted, flips)
