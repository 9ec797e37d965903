"""Error-correcting code used by the uniform ``eps-Buddy`` (Algorithm 6).

The uniform almost-clique test encodes each neighbour identifier with a code
of parameters ``[3b, b, b/2]``: a ``b``-bit identifier is expanded to ``3b``
bits so that any two *distinct* identifiers differ in at least ``b/2``
positions.  The nodes then compare random positions of concatenations of
codewords to distinguish "we genuinely share these neighbours" from "the hash
function collided".

A concrete code meeting the ``[3b, b, b/2]`` guarantee (e.g. a concatenated
Reed–Solomon code) is classical but heavyweight; we implement the standard
*random code*: the codeword of ``w`` is a pseudorandom ``3b``-bit string
derived from ``w``.  Two independent uniform strings of length ``3b`` agree on
fewer than ``3b/4`` of their positions except with probability
``exp(-Omega(b))``, so distinct identifiers are at relative distance ``>= 1/4``
w.h.p. — the property Algorithm 6 needs.  The distance property is unit- and
property-tested, and the substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

from typing import Hashable, Sequence, Tuple

from repro.hashing.keys import element_key, mix64


def hamming_distance(first: Sequence[int], second: Sequence[int]) -> int:
    """Number of positions where the two equal-length bit sequences differ."""
    if len(first) != len(second):
        raise ValueError("bitstrings must have equal length")
    return sum(1 for a, b in zip(first, second) if a != b)


class ErrorCorrectingCode:
    """A (pseudorandom) ``[expansion * b, b, ~b/2]`` binary code.

    Parameters
    ----------
    word_bits:
        ``b``, the number of bits of the identifiers being encoded.
    expansion:
        Codeword length multiplier (the paper uses 3).
    seed:
        Seed shared by all parties so they agree on the code.
    """

    def __init__(self, word_bits: int, expansion: int = 3, seed: int = 0):
        if word_bits < 1:
            raise ValueError("word_bits must be positive")
        if expansion < 2:
            raise ValueError("expansion must be at least 2")
        self.word_bits = int(word_bits)
        self.expansion = int(expansion)
        self.codeword_bits = self.word_bits * self.expansion
        self._seed = mix64(seed, self.word_bits, self.expansion, 0xECC)

    def encode(self, word: Hashable) -> Tuple[int, ...]:
        """Return the codeword of ``word`` as a tuple of 0/1 bits."""
        bits = []
        key = element_key(word)
        chunk = 0
        for position in range(self.codeword_bits):
            if position % 64 == 0:
                chunk = mix64(self._seed, key, position // 64)
            bits.append((chunk >> (position % 64)) & 1)
        return tuple(bits)
