"""Explicit pairwise-independent hash families.

The uniform implementations of Section 5 replace the (existential)
representative families with explicit objects.  The first ingredient is a
family of (almost) pairwise-independent hash functions ``h : C -> [lambda]``:
for a random member and any two distinct inputs,
``Pr[h(x1) = y1 and h(x2) = y2] <= (1 + eps) / lambda^2``.

We use the classical construction ``h_{a,b}(x) = ((a * key(x) + b) mod p) mod
lambda`` over a 61-bit Mersenne prime ``p``, which is exactly pairwise
independent over ``[p]`` and ``(1 + eps)``-approximately pairwise independent
after the final reduction mod ``lambda``.  Selecting a member requires two
numbers below ``p``, i.e. ``O(log p) = O(log |C|)`` bits — but the algorithms
never transmit ``(a, b)`` directly; they transmit an index into a subsampled
family of size ``poly(lambda, log|C|, 1/eps)`` (``family_size``), matching the
``(log lambda + log log |C| + log(1/eps))``-bit cost quoted in the paper.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Optional

from repro.hashing.keys import element_key, mix64

#: A Mersenne prime comfortably above every 61-bit element key chunk.
_PRIME = (1 << 61) - 1


class PairwiseHashFunction:
    """A single member ``h_{a,b}`` of the pairwise-independent family."""

    __slots__ = ("a", "b", "lam")

    def __init__(self, a: int, b: int, lam: int):
        if lam < 1:
            raise ValueError("lambda must be positive")
        if not 1 <= a < _PRIME:
            raise ValueError("coefficient a must be in [1, p)")
        if not 0 <= b < _PRIME:
            raise ValueError("coefficient b must be in [0, p)")
        self.a = a
        self.b = b
        self.lam = lam

    def __call__(self, element: Hashable) -> int:
        key = element_key(element) % _PRIME
        return 1 + ((self.a * key + self.b) % _PRIME) % self.lam

    def collision_count(self, elements: Iterable[Hashable]) -> int:
        """Number of elements involved in a collision inside ``elements``."""
        buckets = {}
        for x in elements:
            buckets.setdefault(self(x), []).append(x)
        return sum(len(items) for items in buckets.values() if len(items) > 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"PairwiseHashFunction(a={self.a}, b={self.b}, lam={self.lam})"


class PairwiseHashFamily:
    """An indexable, explicitly constructible pairwise-independent family.

    The family is the subsampled set ``{h_{a_i, b_i}}_{i in [F]}`` where the
    coefficient pairs are derived deterministically from ``(seed, label, i)``.
    ``family_size`` defaults to ``poly(lambda, log|C|)`` as in the paper, so
    indices cost ``O(log lambda + log log |C|)`` bits.
    """

    def __init__(
        self,
        universe_label: str,
        universe_size: int,
        lam: int,
        seed: int = 0,
        family_size: Optional[int] = None,
    ):
        if lam < 1:
            raise ValueError("lambda must be positive")
        self.universe_label = universe_label
        self.universe_size = max(2, int(universe_size))
        self.lam = int(lam)
        self._seed = mix64(seed, element_key(universe_label), self.lam, 0xA11CE)
        if family_size is None:
            log_log_universe = max(1.0, math.log2(max(2.0, math.log2(self.universe_size))))
            family_size = int(max(16, (self.lam ** 2) * (1 + log_log_universe)))
        self.family_size = min(int(family_size), 1 << 30)

    @property
    def index_bits(self) -> int:
        return max(1, (self.family_size - 1).bit_length())

    def member(self, index: int) -> PairwiseHashFunction:
        if not 0 <= index < self.family_size:
            raise IndexError(f"index {index} outside family of size {self.family_size}")
        a = 1 + mix64(self._seed, index, 1) % (_PRIME - 1)
        b = mix64(self._seed, index, 2) % _PRIME
        return PairwiseHashFunction(a, b, self.lam)

    def sample_index(self, rng) -> int:
        return rng.randrange(self.family_size)

    def find_low_collision_index(
        self,
        elements: Iterable[Hashable],
        max_colliding: int,
        rng,
        attempts: int = 64,
    ) -> int:
        """Find (by rejection sampling) a member with few collisions on ``elements``.

        The uniform MultiTrial (Alg. 5) and uniform Buddy (Alg. 6) have one
        endpoint pick a hash function "with at most ... collisions" among its
        own elements.  Because a random pairwise-independent member has few
        collisions in expectation, rejection sampling finds one quickly; we
        fall back to the best seen index if none meets the target within
        ``attempts`` tries (and let the calling algorithm's own failure
        analysis absorb the slack).
        """
        elements = list(elements)
        best_index = self.sample_index(rng)
        best_collisions = self.member(best_index).collision_count(elements)
        if best_collisions <= max_colliding:
            return best_index
        for _ in range(attempts - 1):
            index = self.sample_index(rng)
            collisions = self.member(index).collision_count(elements)
            if collisions < best_collisions:
                best_index, best_collisions = index, collisions
            if best_collisions <= max_colliding:
                break
        return best_index
