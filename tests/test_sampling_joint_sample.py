"""Tests for JointSample (Algorithm 2, Lemma 3)."""

import random

import pytest

from repro.sampling import SimilarityParameters, joint_sample, joint_sample_many
from repro.sampling.joint_sample import agreement_rate


def overlapping_sets(size: int, overlap: int, offset: int = 10_000):
    shared = set(range(overlap))
    left = shared | {offset + i for i in range(size - overlap)}
    right = shared | {2 * offset + i for i in range(size - overlap)}
    return left, right


PARAMS = SimilarityParameters(eps=0.3, nu=0.1, max_scale=4, sigma_cap=2048, seed=0)


class TestJointSample:
    def test_empty_sets_return_nothing(self):
        result = joint_sample(set(), {1, 2})
        assert result.empty
        assert not result.agreed

    def test_agreed_element_lies_in_intersection(self):
        left, right = overlapping_sets(400, 200)
        for trial in range(10):
            result = joint_sample(left, right, PARAMS, rng=random.Random(trial))
            if result.agreed:
                assert result.u_element in left & right

    def test_lemma3_agreement_probability(self):
        """With a large intersection, both sides output the same element often."""
        left, right = overlapping_sets(400, 300)
        rate = agreement_rate(left, right, trials=30, params=PARAMS, seed=1)
        # Lemma 3 promises >= 1 - 5eps/4 - nu = 0.525 for eps=0.3, nu=0.1;
        # in practice the rate is much higher.
        assert rate >= 0.5

    @pytest.mark.parametrize("overlap_fraction", [0.9, 0.6, 0.3])
    def test_lemma3_agreement_above_eps_threshold(self, overlap_fraction):
        """Lemma 3 (E3): intersections of at least ε·max agree w.p. >= 1 - 5ε/4 - ν.

        The 0.1 allowance is for the 40-run estimate of that probability.
        """
        eps, nu, size = 0.3, 0.1, 500
        overlap = int(overlap_fraction * size)
        assert overlap >= eps * size
        left, right = overlapping_sets(size, overlap, offset=10 ** 6)
        params = SimilarityParameters(eps=eps, nu=nu, max_scale=4, sigma_cap=4096, seed=2)
        rate = agreement_rate(left, right, trials=40, params=params, seed=3)
        assert round(rate, 3) >= round(1 - 5 * eps / 4 - nu, 3) - 0.1

    def test_tiny_intersection_rarely_agrees_on_shared_element(self):
        left, right = overlapping_sets(400, 4)
        agreements_in_intersection = 0
        for trial in range(20):
            result = joint_sample(left, right, PARAMS, rng=random.Random(trial))
            if result.agreed and result.u_element in (left & right):
                agreements_in_intersection += 1
        assert agreements_in_intersection <= 20  # sanity: never crashes; output may be rare

    def test_each_side_outputs_own_element(self):
        left, right = overlapping_sets(300, 150)
        result = joint_sample(left, right, PARAMS, rng=random.Random(3))
        if result.u_element is not None:
            assert result.u_element in left
        if result.v_element is not None:
            assert result.v_element in right

    def test_bits_accounted(self):
        left, right = overlapping_sets(300, 150)
        result = joint_sample(left, right, PARAMS, rng=random.Random(4))
        assert result.bits_exchanged > 0


class TestJointSampleMany:
    def test_count_validation(self):
        with pytest.raises(ValueError):
            joint_sample_many({1}, {1}, count=0)

    def test_returns_requested_count(self):
        left, right = overlapping_sets(300, 200)
        results = joint_sample_many(left, right, count=5, params=PARAMS, rng=random.Random(5))
        assert len(results) == 5

    def test_batch_shares_hash_exchange_cost(self):
        """Only the first sample of a batch pays the σ-bit exchange."""
        left, right = overlapping_sets(300, 200)
        results = joint_sample_many(left, right, count=4, params=PARAMS, rng=random.Random(6))
        assert results[0].bits_exchanged > results[1].bits_exchanged

    def test_empty_sets_batch(self):
        results = joint_sample_many(set(), {1, 2}, count=3)
        assert all(r.empty for r in results)

    def test_agreement_rate_validation(self):
        with pytest.raises(ValueError):
            agreement_rate({1}, {1}, trials=0)
