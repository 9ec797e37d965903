"""Representative multisets / averaging samplers (Appendix B).

An ``(delta, eps)``-averaging sampler ``Samp : [N] -> [M]^t`` guarantees that,
for every bounded function ``f`` on ``[M]``, the empirical mean of ``f`` on
the ``t`` sampled points is within ``eps`` of its true mean except with
probability ``delta``.  The paper uses such samplers (equivalently, families
of "representative multisets") in the uniform implementations of MultiTrial
and Buddy: a node samples ``t = Theta(log|C| + log n)`` positions of a domain
using only ``N = Theta(log n)`` random bits, so describing the sample costs a
single ``O(log n)``-bit message.

We realise the sampler as a seeded family: choice ``i`` of the random input
expands deterministically to ``t`` pseudorandom points of ``[M]``.  Truly
random multisets are ``(delta, eps)``-averaging samplers w.h.p. (a direct
Chernoff + union bound argument, the same one behind Lemma 1), and the unit
tests check the averaging property empirically.
"""

from __future__ import annotations

from typing import List

from repro.hashing.keys import mix64


class AveragingSampler:
    """One sampled multiset: ``t`` pseudorandom points of ``[1, domain_size]``."""

    __slots__ = ("seed", "index", "domain_size", "count")

    def __init__(self, seed: int, index: int, domain_size: int, count: int):
        if domain_size < 1:
            raise ValueError("domain_size must be positive")
        if count < 1:
            raise ValueError("count must be positive")
        self.seed = seed
        self.index = index
        self.domain_size = domain_size
        self.count = count

    def points(self) -> List[int]:
        """Return the sampled multiset (1-based values, may repeat)."""
        return [
            1 + mix64(self.seed, self.index, position) % self.domain_size
            for position in range(self.count)
        ]

class RepresentativeMultisetFamily:
    """A family of representative multisets over ``[domain_size]``.

    Selecting a member costs :attr:`index_bits` = ``Theta(log n)`` bits; the
    member itself describes ``count`` points of the domain.
    """

    def __init__(
        self,
        domain_size: int,
        count: int,
        seed: int = 0,
        random_bits: int = 24,
    ):
        if domain_size < 1:
            raise ValueError("domain_size must be positive")
        if count < 1:
            raise ValueError("count must be positive")
        if random_bits < 1 or random_bits > 48:
            raise ValueError("random_bits must be in [1, 48]")
        self.domain_size = int(domain_size)
        self.count = int(count)
        self.family_size = 1 << int(random_bits)
        self._seed = mix64(seed, self.domain_size, self.count, 0x5A4)

    @property
    def index_bits(self) -> int:
        return max(1, (self.family_size - 1).bit_length())

    def member(self, index: int) -> AveragingSampler:
        if not 0 <= index < self.family_size:
            raise IndexError(f"index {index} outside family of size {self.family_size}")
        return AveragingSampler(self._seed, index, self.domain_size, self.count)

    def sample_index(self, rng) -> int:
        return rng.randrange(self.family_size)

