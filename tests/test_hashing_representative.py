"""Tests for representative hash families (Lemma 1)."""

import random

import pytest

from repro.hashing.representative import (
    RepresentativeHashFamily,
    representative_family_parameters,
)
from repro.hashing.setops import colliding_part, low_part


class TestParameters:
    def test_rejects_bad_alpha_beta(self):
        with pytest.raises(ValueError):
            representative_family_parameters(0.5, 0.2, 0.1, 100, 1000)
        with pytest.raises(ValueError):
            representative_family_parameters(0.0, 0.2, 0.1, 100, 1000)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            representative_family_parameters(0.1, 0.2, 0.0, 100, 1000)

    def test_sigma_at_most_lambda(self):
        params = representative_family_parameters(0.1, 0.2, 0.1, 50, 1000)
        assert params.sigma <= 50

    def test_sigma_cap_applies(self):
        params = representative_family_parameters(0.01, 0.05, 0.01, 10 ** 6, 1000, sigma_cap=256)
        assert params.sigma == 256

    def test_sigma_grows_as_accuracy_tightens(self):
        loose = representative_family_parameters(0.2, 0.4, 0.1, 10 ** 6, 1000)
        tight = representative_family_parameters(0.05, 0.1, 0.1, 10 ** 6, 1000)
        assert tight.sigma > loose.sigma

    def test_index_bits_logarithmic_in_family_size(self):
        params = representative_family_parameters(0.1, 0.2, 0.1, 1000, 10 ** 9)
        assert 2 ** params.index_bits >= params.family_size
        assert params.index_bits <= 64


class TestFamily:
    def make(self, lam=600, seed=0):
        return RepresentativeHashFamily(
            universe_label="colors", universe_size=10 ** 6, lam=lam,
            alpha=1 / 12, beta=1 / 3, nu=0.05, seed=seed,
        )

    def test_members_map_into_range(self):
        family = self.make()
        h = family.member(0)
        assert all(1 <= h(x) <= family.lam for x in range(200))

    def test_members_are_deterministic(self):
        family_a = self.make(seed=3)
        family_b = self.make(seed=3)
        assert [family_a.member(5)(x) for x in range(50)] == [
            family_b.member(5)(x) for x in range(50)
        ]

    def test_distinct_members_differ(self):
        family = self.make()
        h0, h1 = family.member(0), family.member(1)
        assert any(h0(x) != h1(x) for x in range(50))

    def test_distinct_seeds_give_distinct_families(self):
        a, b = self.make(seed=1), self.make(seed=2)
        assert any(a.member(0)(x) != b.member(0)(x) for x in range(50))

    def test_index_out_of_range(self):
        family = self.make()
        with pytest.raises(IndexError):
            family.member(family.size)

    def test_size_and_member(self):
        family = self.make()
        assert family.size == family.params.family_size > 2
        assert family.member(2) is family.member(2)
        assert 1 <= family.member(family.size - 1)(7) <= family.lam

    def test_sample_index_within_range(self):
        family = self.make()
        rng = random.Random(0)
        for _ in range(20):
            assert 0 <= family.sample_index(rng) < family.size


class TestLowUniqueValuesFastPath:
    """The inlined counting pass must agree with per-element evaluation."""

    def make(self, lam=600, seed=0):
        return RepresentativeHashFamily(
            universe_label="colors", universe_size=10 ** 6, lam=lam,
            alpha=1 / 12, beta=1 / 3, nu=0.05, seed=seed,
        )

    @staticmethod
    def oracle(h, elements, sigma):
        """Literal definition: low hash values hit by exactly one element."""
        values = [h(x) for x in elements]
        return {v for v in values if v <= sigma and values.count(v) == 1}

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_elementwise_evaluation(self, trial):
        from repro.hashing.keys import combine_part_keys, element_key

        rng = random.Random(trial)
        family = self.make(lam=rng.choice([40, 600]), seed=trial)
        h = family.member(rng.randrange(family.size))
        sigma = rng.choice([5, family.sigma, family.lam])
        # Mixed universe: ints plus scaled (x, j) tuples, as the similarity
        # sweep hashes them.
        elements = [rng.randrange(1000) for _ in range(60)]
        elements += [(rng.randrange(50), j) for j in range(3) for _ in range(20)]
        keys = [element_key(x) for x in elements]
        assert h.low_unique_values(keys, sigma) == self.oracle(h, elements, sigma)
        # Scaled keys built from precombined parts match element_key too.
        pair_keys = [combine_part_keys((element_key(x), j))
                     for x in elements[:30] for j in range(4)]
        direct = [element_key((x, j)) for x in elements[:30] for j in range(4)]
        assert pair_keys == direct


class TestLemma1Statistics:
    """Empirical check of the (A, B)-good properties for random members.

    This mirrors Claim 1: for fixed sets A, B, most members of the family
    should report a low part of size close to sigma*|A|/lambda and few
    collisions.  ``test_lemma1_good_fraction_across_size_regimes`` sweeps
    this more extensively.
    """

    def setup_method(self):
        self.lam = 2000
        self.family = RepresentativeHashFamily(
            universe_label="lemma1", universe_size=10 ** 9, lam=self.lam,
            alpha=0.05, beta=0.25, nu=0.1, seed=11,
        )

    def test_low_part_concentration_large_set(self):
        a = set(range(400))  # |A| >= alpha * lambda = 100
        sigma = self.family.sigma
        expected = sigma * len(a) / self.lam
        good = 0
        trials = 30
        rng = random.Random(1)
        for _ in range(trials):
            h = self.family.member(self.family.sample_index(rng))
            size = len(low_part(h, a, sigma))
            if abs(size - expected) <= 0.5 * expected:
                good += 1
        assert good >= 0.8 * trials

    def test_collisions_are_rare(self):
        a = set(range(400))
        b = set(range(200, 600))
        sigma = self.family.sigma
        rng = random.Random(2)
        bound = 2 * sigma * len(a) / self.lam * 0.5  # 2*sigma*|A|/lam * beta-ish
        violations = 0
        trials = 30
        for _ in range(trials):
            h = self.family.member(self.family.sample_index(rng))
            collisions = len(colliding_part(h, a, b, sigma))
            if collisions > max(4.0, bound):
                violations += 1
        assert violations <= 0.3 * trials

    def test_small_sets_have_small_low_part(self):
        a = set(range(20))  # |A| < alpha * lambda
        sigma = self.family.sigma
        rng = random.Random(3)
        cap = sigma * 0.05 * (1 + 0.25) + 5
        for _ in range(20):
            h = self.family.member(self.family.sample_index(rng))
            assert len(low_part(h, a, sigma)) <= max(cap, 3 * sigma * len(a) / self.lam + 5)


def test_lemma1_good_fraction_across_size_regimes():
    """Claim 1 (E1): at least a 1 - ν share of members is (A, B)-good.

    Good means both Lemma 1 properties hold at once, for |A| above, at and
    below the αλ threshold.  The 0.15 allowance covers the capped
    simulation-scale family.
    """
    alpha, beta, nu, lam, trials = 0.05, 0.25, 0.1, 4000, 60
    family = RepresentativeHashFamily(
        universe_label="e1", universe_size=10 ** 9, lam=lam,
        alpha=alpha, beta=beta, nu=nu, seed=1,
    )
    sigma = family.sigma
    rng = random.Random(0)
    for size_a in (int(4 * alpha * lam), int(alpha * lam), int(alpha * lam / 4)):
        a = set(range(size_a))
        b = set(range(size_a // 2, size_a // 2 + int(beta * lam * 0.8)))
        good = 0
        for _ in range(trials):
            h = family.member(family.sample_index(rng))
            low = len(low_part(h, a, sigma))
            collisions = len(colliding_part(h, a, b, sigma))
            if size_a >= alpha * lam:
                expected = sigma * size_a / lam
                size_ok = abs(low - expected) <= beta * expected
                coll_ok = collisions <= 2 * beta * expected
            else:
                size_ok = low <= sigma * alpha * (1 + beta)
                coll_ok = collisions <= 2 * sigma * alpha * beta + 2
            good += size_ok and coll_ok
        assert round(good / trials, 3) >= 1 - nu - 0.15, size_a


class TestElementKeyTypeSensitivity:
    """Regression: equal-but-differently-typed elements must never share a
    cached key (Python equality unifies 1 and 1.0, their keys must not)."""

    def test_int_and_float_tuples_key_differently(self):
        from repro.hashing.keys import element_key

        # Warm the cache with the int variant first, then query the float
        # variant: the order must not matter.
        k_int = element_key((5, 2))
        k_float = element_key((5.0, 2))
        assert k_int != k_float

    def test_cached_key_matches_uncached_computation(self):
        from repro.hashing.keys import element_key, mix64

        expected = mix64(element_key(7.0), element_key(1), 0x7157)
        element_key((7, 1))  # try to poison the cache with the int variant
        assert element_key((7.0, 1)) == expected

    def test_hash_function_distinguishes_types_regardless_of_order(self):
        from repro.hashing.representative import RepresentativeHashFunction

        h1 = RepresentativeHashFunction(123, 0, 97)
        first_int = h1(11)
        first_float = h1(11.0)
        h2 = RepresentativeHashFunction(123, 0, 97)
        assert h2(11.0) == first_float
        assert h2(11) == first_int
