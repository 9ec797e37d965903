"""Tests for representative multisets / averaging samplers (Appendix B)."""

import random

import pytest

from repro.hashing.multiset import AveragingSampler, RepresentativeMultisetFamily


class TestAveragingSampler:
    def test_points_in_domain(self):
        sampler = AveragingSampler(seed=1, index=2, domain_size=100, count=50)
        points = sampler.points()
        assert len(points) == 50
        assert all(1 <= p <= 100 for p in points)

    def test_points_deterministic(self):
        a = AveragingSampler(seed=1, index=2, domain_size=100, count=50)
        b = AveragingSampler(seed=1, index=2, domain_size=100, count=50)
        assert a.points() == b.points()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AveragingSampler(seed=0, index=0, domain_size=0, count=5)
        with pytest.raises(ValueError):
            AveragingSampler(seed=0, index=0, domain_size=5, count=0)


class TestRepresentativeMultisetFamily:
    def test_index_bits_match_random_bits(self):
        family = RepresentativeMultisetFamily(domain_size=1000, count=64, random_bits=20)
        assert family.index_bits == 20

    def test_member_out_of_range(self):
        family = RepresentativeMultisetFamily(domain_size=100, count=8, random_bits=8)
        with pytest.raises(IndexError):
            family.member(family.family_size)

    def test_members_differ(self):
        family = RepresentativeMultisetFamily(domain_size=1000, count=32)
        assert family.member(0).points() != family.member(1).points()

    def test_averaging_property(self):
        """A random member estimates the density of a half-full indicator well."""
        domain = 400
        family = RepresentativeMultisetFamily(domain_size=domain, count=128, seed=3)
        values = [1.0 if i < domain // 2 else 0.0 for i in range(domain)]
        rng = random.Random(0)
        good = 0
        trials = 40
        for _ in range(trials):
            points = family.member(family.sample_index(rng)).points()
            if abs(sum(values[p - 1] for p in points) / len(points) - 0.5) <= 0.15:
                good += 1
        assert good >= 0.85 * trials

    def test_hitting_property(self):
        """A random member hits any constant-density subset (the MultiTrial use case)."""
        domain = 600
        target = set(range(0, domain, 3))  # density 1/3
        family = RepresentativeMultisetFamily(domain_size=domain, count=64, seed=5)
        rng = random.Random(1)
        for _ in range(30):
            sampler = family.member(family.sample_index(rng))
            hits = sum(1 for p in sampler.points() if (p - 1) in target)
            assert hits >= 8  # expected ~21, allow a wide margin

    def test_invalid_random_bits(self):
        with pytest.raises(ValueError):
            RepresentativeMultisetFamily(domain_size=10, count=4, random_bits=0)
        with pytest.raises(ValueError):
            RepresentativeMultisetFamily(domain_size=10, count=4, random_bits=64)
