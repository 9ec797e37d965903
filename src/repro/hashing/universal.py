"""Approximately-universal hash families for huge color spaces (Appendix D.3).

When colors live in a space of size up to ``exp(n^Theta(1))``, nodes cannot
afford to send a color verbatim.  Appendix D.3 instead has every node ``v``
pick a ``(1 + eps)``-approximately universal hash function
``h_v : C -> [M]`` with ``M = Theta(n^d)`` and broadcast its index; neighbours
then communicate colors *to v* by sending ``h_v(color)``.  Provided no
collision occurs among the ``(Delta + 1)^2`` colors relevant to any single
neighbourhood — which happens w.h.p. for ``d >= 6`` — the hash values are a
perfect stand-in for the colors.

``ApproximatelyUniversalFamily`` is that object: members are derived from a
seed and an index, describing a member costs ``O(log log |C| + log M)`` bits
(the paper's bound from [BJKS93]/[Vad12]), and evaluating a member reduces an
arbitrary color to an integer below ``M``.
"""

from __future__ import annotations

import math
from typing import Hashable

from repro.hashing.keys import element_key, mix64


class UniversalHashFunction:
    """A member of an approximately universal family, mapping ``C -> [M]``."""

    __slots__ = ("seed", "index", "modulus")

    def __init__(self, seed: int, index: int, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.seed = seed
        self.index = index
        self.modulus = modulus

    def __call__(self, element: Hashable) -> int:
        return mix64(self.seed, self.index, element_key(element)) % self.modulus

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"UniversalHashFunction(index={self.index}, M={self.modulus})"


class ApproximatelyUniversalFamily:
    """Family of ``(1 + eps)``-approximately universal hash functions.

    Parameters
    ----------
    color_space_bits:
        ``log2 |C|`` of the color space being reduced.  Only its logarithm
        enters the index cost, so color spaces of size ``exp(n^Theta(1))`` are
        supported — exactly the regime of Appendix D.3.
    modulus:
        Output range ``M``.  The coloring pipeline uses ``M = n^d`` with
        ``d >= 6`` so that no collision occurs in any 2-neighbourhood w.h.p.
    eps:
        Approximation slack; only affects the declared family size / index
        cost, mirroring the explicit constructions cited by the paper.
    """

    def __init__(
        self,
        color_space_bits: float,
        modulus: int,
        eps: float = 1.0,
        seed: int = 0,
    ):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.color_space_bits = max(1.0, float(color_space_bits))
        self.modulus = int(modulus)
        self.eps = float(eps)
        self._seed = mix64(seed, self.modulus, 0xD3)
        # Size of the explicit family: poly(M, log|C|, 1/eps).  Only its log
        # matters for communication, so the exact polynomial is unimportant.
        log_log_c = max(1.0, math.log2(self.color_space_bits))
        self.family_size = int(
            min(1 << 40, max(16, self.modulus * (1.0 / self.eps + log_log_c)))
        )

    @property
    def value_bits(self) -> int:
        """Bits to send one hash value, ``ceil(log2 M)``."""
        return max(1, (self.modulus - 1).bit_length())

    def member(self, index: int) -> UniversalHashFunction:
        if not 0 <= index < self.family_size:
            raise IndexError(f"index {index} outside family of size {self.family_size}")
        return UniversalHashFunction(self._seed, index, self.modulus)

    def sample_index(self, rng) -> int:
        return rng.randrange(self.family_size)
