"""Tests for the set operators of Section 3.1 (Proposition 1 invariants)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing.keys import element_key, mix64
from repro.hashing.representative import RepresentativeHashFamily
from repro.hashing.setops import colliding_part, low_part, unique_part


def make_hash(lam: int, seed: int = 0):
    """A deterministic stand-in hash function to [1, lam]."""
    return lambda x: 1 + mix64(seed, element_key(x)) % lam


class TestLowPart:
    def test_threshold_at_lambda_keeps_everything(self):
        h = make_hash(10)
        elements = set(range(50))
        assert low_part(h, elements, 10) == elements

    def test_threshold_zero_keeps_nothing(self):
        h = make_hash(10)
        assert low_part(h, set(range(50)), 0) == set()

    def test_monotone_in_sigma(self):
        h = make_hash(16)
        elements = set(range(40))
        small = low_part(h, elements, 4)
        large = low_part(h, elements, 12)
        assert small <= large


class TestCollidingAndUnique:
    def test_disjoint_hashes_have_no_collisions(self):
        h = lambda x: x  # identity: everyone unique
        elements = set(range(1, 20))
        assert colliding_part(h, elements, elements, 100) == set()
        assert unique_part(h, elements, elements, 100) == elements

    def test_everything_collides_with_constant_hash(self):
        h = lambda x: 1
        elements = set(range(10))
        assert colliding_part(h, elements, elements, 5) == elements
        assert unique_part(h, elements, elements, 5) == set()

    def test_single_element_never_collides_with_itself(self):
        h = lambda x: 1
        assert colliding_part(h, {"a"}, {"a"}, 5) == set()
        assert unique_part(h, {"a"}, {"a"}, 5) == {"a"}

    def test_collision_against_other_set(self):
        h = lambda x: 1 if x in ("a", "b") else 2
        assert colliding_part(h, {"a"}, {"b"}, 5) == {"a"}
        assert colliding_part(h, {"a"}, {"c"}, 5) == set()


# --------------------------------------------------------------------------- #
# Proposition 1 as property-based tests.
# --------------------------------------------------------------------------- #

small_sets = st.sets(st.integers(min_value=0, max_value=200), min_size=0, max_size=40)


@settings(max_examples=60, deadline=None)
@given(a=small_sets, b=small_sets, lam=st.integers(min_value=2, max_value=64),
       sigma=st.integers(min_value=1, max_value=64), seed=st.integers(0, 5))
def test_proposition1_image_of_collisions_at_most_half(a, b, lam, sigma, seed):
    """Eq. (1): |h(A ∧ A)| <= |A ∧ A| / 2."""
    h = make_hash(lam, seed)
    collisions = colliding_part(h, a, a, sigma)
    assert len({h(x) for x in collisions}) <= len(collisions) / 2 or not collisions


@settings(max_examples=60, deadline=None)
@given(a=small_sets, extra=small_sets, lam=st.integers(min_value=2, max_value=64),
       sigma=st.integers(min_value=1, max_value=64), seed=st.integers(0, 5))
def test_proposition1_unique_part_injective(a, extra, lam, sigma, seed):
    """Eq. (2): when A ⊆ B, |h(A ¬ B)| = |A ¬ B|."""
    h = make_hash(lam, seed)
    b = a | extra
    survivors = unique_part(h, a, b, sigma)
    assert len({h(x) for x in survivors}) == len(survivors)


@settings(max_examples=60, deadline=None)
@given(a=small_sets, b=small_sets, extra=small_sets,
       lam=st.integers(min_value=2, max_value=64),
       sigma=st.integers(min_value=1, max_value=64), seed=st.integers(0, 5))
def test_proposition1_monotonicity(a, b, extra, lam, sigma, seed):
    """Eq. (3): B ⊆ C implies A ∧ B ⊆ A ∧ C and A ¬ C ⊆ A ¬ B."""
    h = make_hash(lam, seed)
    c = b | extra
    assert colliding_part(h, a, b, sigma) <= colliding_part(h, a, c, sigma)
    assert unique_part(h, a, c, sigma) <= unique_part(h, a, b, sigma)


@settings(max_examples=60, deadline=None)
@given(a=small_sets, b=small_sets, lam=st.integers(min_value=2, max_value=64),
       sigma=st.integers(min_value=1, max_value=64), seed=st.integers(0, 5))
def test_partition_of_low_part(a, b, lam, sigma, seed):
    """A|_h is the disjoint union of A ∧ B and A ¬ B."""
    h = make_hash(lam, seed)
    low = low_part(h, a, sigma)
    collide = colliding_part(h, a, b, sigma)
    unique = unique_part(h, a, b, sigma)
    assert collide | unique == low
    assert collide & unique == set()


class TestWithRepresentativeFamily:
    """The operators compose with actual representative family members."""

    def test_low_part_size_concentrates(self):
        family = RepresentativeHashFamily(
            universe_label="test", universe_size=10 ** 6, lam=1000,
            alpha=0.1, beta=0.3, nu=0.1, seed=1,
        )
        h = family.member(3)
        elements = set(range(500))
        expected = family.sigma * len(elements) / family.lam
        observed = len(low_part(h, elements, family.sigma))
        assert 0.5 * expected <= observed <= 2.0 * expected

    def test_figures_1_2_part_sizes(self):
        """Figures 1-2 (E13): mean |A|_h| over random members is within 35%
        of σ|A|/λ, and the colliding and unique parts partition it.

        The three figures share one member stream, in this order.  Averages
        are rounded to one decimal, hence the 0.3 slack.
        """
        lam, trials = 20000, 40
        family = RepresentativeHashFamily(
            universe_label="e13", universe_size=10 ** 9, lam=lam,
            alpha=0.05, beta=0.25, nu=0.1, seed=13,
        )
        sigma = family.sigma
        rng = random.Random(0)
        a = set(range(500))
        for b in (set(range(500)), set(range(250, 750)), set(range(450, 950))):
            low_sizes, collide_sizes, unique_sizes = [], [], []
            for _ in range(trials):
                h = family.member(family.sample_index(rng))
                low_sizes.append(len(low_part(h, a, sigma)))
                collide_sizes.append(len(colliding_part(h, a, b, sigma)))
                unique_sizes.append(len(unique_part(h, a, b, sigma)))
            predicted_low = round(sigma * len(a) / lam, 1)
            low = round(sum(low_sizes) / trials, 1)
            collide = round(sum(collide_sizes) / trials, 1)
            unique = round(sum(unique_sizes) / trials, 1)
            assert abs(low - predicted_low) <= 0.35 * predicted_low
            assert abs(collide + unique - low) <= 0.3
