"""Tests for the approximately-universal families used for huge color spaces."""

import random

import pytest

from repro.hashing.universal import ApproximatelyUniversalFamily


class TestApproximatelyUniversalFamily:
    def make(self, modulus=10 ** 6, bits=200, seed=0):
        return ApproximatelyUniversalFamily(
            color_space_bits=bits, modulus=modulus, eps=1.0, seed=seed
        )

    def test_values_in_range(self):
        family = self.make(modulus=1000)
        h = family.member(3)
        assert all(0 <= h(x) < 1000 for x in range(500))

    def test_handles_huge_colors(self):
        family = self.make()
        h = family.member(1)
        huge_color = 2 ** 180 + 12345
        assert 0 <= h(huge_color) < family.modulus

    def test_value_bits(self):
        family = self.make(modulus=2 ** 20)
        assert family.value_bits == 20

    def test_collision_probability_small(self):
        family = self.make(modulus=10 ** 6, seed=4)
        rng = random.Random(0)
        collisions = 0
        trials = 2000
        for _ in range(trials):
            h = family.member(family.sample_index(rng))
            if h(2 ** 100 + 1) == h(2 ** 100 + 2):
                collisions += 1
        assert collisions <= 3

    def test_deterministic(self):
        a, b = self.make(seed=9), self.make(seed=9)
        assert [a.member(2)(x) for x in range(50)] == [b.member(2)(x) for x in range(50)]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ApproximatelyUniversalFamily(color_space_bits=10, modulus=1)
        with pytest.raises(ValueError):
            ApproximatelyUniversalFamily(color_space_bits=10, modulus=100, eps=0)

    def test_out_of_range_index(self):
        family = self.make()
        with pytest.raises(IndexError):
            family.member(family.family_size)
