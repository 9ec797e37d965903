"""Representative hash families (Lemma 1 of the paper).

Lemma 1 proves, via the probabilistic method, that for parameters
``alpha <= beta``, error ``nu`` and range ``lambda``, there exists a family of
``F = Theta(beta * lambda * nu^{-1} * log|U|)`` hash functions and a threshold
``sigma = Theta(beta^{-2} alpha^{-1} log(1/nu))`` such that for every pair of
sets ``A, B`` of size at most ``beta * lambda``, at least a ``(1 - nu)``
fraction of the family is *(A, B)-good*:

* ``|A|_h^{<=sigma}|`` is within a ``(1 ± beta)`` factor of ``sigma |A| / lambda``
  (or at most ``sigma * alpha * (1 + beta)`` when ``|A| < alpha * lambda``), and
* ``|A wedge_h^{<=sigma} B| <= 2 beta * sigma * |A| / lambda`` (resp.
  ``2 sigma alpha beta``).

The construction is existential; the paper's algorithms only require that the
two communicating endpoints agree on the family and exchange the *index* of a
member.  This module realises the family as a **seeded pseudorandom family**:
member ``i`` hashes ``x`` to ``1 + mix(seed, i, key(x)) mod lambda``.  A fully
random function has the (A, B)-good property with probability ``>= 1 - nu/2``
(Claim 1), and the seeded members behave statistically like fully random
functions on the universes the algorithms hash (colors, node IDs); Experiment
E1 validates exactly the Lemma 1 statistics for this family.  Communication
cost is unchanged: we only ever transmit ``index`` using ``log2 F`` bits.

The uniform (fully explicit) alternatives of Section 5 — pairwise-independent
hashing combined with averaging samplers — are implemented in
:mod:`repro.hashing.pairwise` and :mod:`repro.hashing.multiset` and are used by
the ``uniform=True`` code paths of MultiTrial and Buddy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Optional, Set

from repro.hashing.keys import _MASK64, MIX64_INIT, element_key, mix64, mix64_step

#: Hard cap on the family size used for *communication accounting*.  Lemma 1's
#: family has size ``Theta(beta * lambda / nu * log|U|)``; transmitting an
#: index therefore costs ``O(log(lambda / nu) + log log |U|)`` bits, which is
#: ``O(log n)`` for every parameterisation used by the algorithms.  The seeded
#: family is effectively unbounded, so we cap the *declared* size (and hence
#: the charged bits) at the value the lemma prescribes.
_MAX_FAMILY_SIZE = 1 << 30


@dataclass(frozen=True)
class RepresentativeFamilyParameters:
    """Resolved parameters of a representative family (Lemma 1)."""

    lam: int
    sigma: int
    family_size: int
    alpha: float
    beta: float
    nu: float
    universe_bits: float

    @property
    def index_bits(self) -> int:
        """Bits needed to transmit the index of a member of the family."""
        return max(1, (self.family_size - 1).bit_length())


def representative_family_parameters(
    alpha: float,
    beta: float,
    nu: float,
    lam: int,
    universe_size: int,
    sigma_cap: Optional[int] = None,
) -> RepresentativeFamilyParameters:
    """Compute ``(sigma, F)`` for the family, following Lemma 1.

    Parameters mirror the lemma: ``alpha <= beta`` in ``(0, 1)``, failure
    probability ``nu`` in ``(0, 1)``, range size ``lam`` and universe size
    ``|U|``.  ``sigma`` is clamped to ``lam`` (hash values cannot exceed the
    range) and optionally to ``sigma_cap`` — the algorithms cap ``sigma`` at
    the bandwidth ``b = Theta(log n)`` exactly as the paper does.
    """
    if not 0 < alpha <= beta < 1:
        raise ValueError(f"need 0 < alpha <= beta < 1, got alpha={alpha}, beta={beta}")
    if not 0 < nu < 1:
        raise ValueError(f"need 0 < nu < 1, got nu={nu}")
    if lam < 1:
        raise ValueError(f"lambda must be positive, got {lam}")
    if universe_size < 1:
        raise ValueError("universe_size must be positive")

    log_inv_nu = math.log(12.0 / nu)
    sigma = int(math.ceil(3.0 * log_inv_nu / (beta * beta * alpha)))
    sigma = max(1, min(sigma, lam))
    if sigma_cap is not None:
        sigma = max(1, min(sigma, int(sigma_cap)))

    log_universe = max(1.0, math.log2(universe_size))
    family_size = int(math.ceil(24.0 * beta * lam / nu * log_universe))
    family_size = max(2, min(family_size, _MAX_FAMILY_SIZE))

    return RepresentativeFamilyParameters(
        lam=int(lam),
        sigma=sigma,
        family_size=family_size,
        alpha=float(alpha),
        beta=float(beta),
        nu=float(nu),
        universe_bits=log_universe,
    )


class RepresentativeHashFunction:
    """A single member of a representative family, usable as ``h(x)``.

    Hash values are 1-based (``1 .. lambda``), matching the paper's ``[lambda]``.
    """

    __slots__ = ("family_seed", "index", "lam", "_prefix", "_memo")

    def __init__(self, family_seed: int, index: int, lam: int):
        self.family_seed = int(family_seed)
        self.index = int(index)
        self.lam = int(lam)
        # mix64(seed, index, key) == one step over the (seed, index) prefix,
        # so the prefix accumulator is computed once per function.  Values
        # are memoized by the element's 64-bit *key* (never by the element
        # itself: Python equality would alias 1 and 1.0, whose keys differ),
        # because the set primitives evaluate ``h`` on the same elements
        # several times per round.
        self._prefix = mix64_step(mix64_step(MIX64_INIT, self.family_seed), self.index)
        self._memo = {}

    def __call__(self, element: Hashable) -> int:
        key = element_key(element)
        value = self._memo.get(key)
        if value is None:
            value = 1 + mix64_step(self._prefix, key) % self.lam
            self._memo[key] = value
        return value

    def low_unique_values(self, keys: Iterable[int], sigma: int) -> Set[int]:
        """Hash values in ``[sigma]`` hit by *exactly one* of ``keys``.

        ``keys`` are precomputed :func:`~repro.hashing.keys.element_key`
        values (one per element, duplicates allowed — a duplicate key means a
        hash collision at key level and therefore a non-unique value, exactly
        as evaluating ``h`` element by element would conclude).  This is the
        single primitive ``EstimateSimilarity`` needs per endpoint; computing
        it here, with the splitmix64 finaliser of
        :func:`~repro.hashing.keys.mix64_step` inlined into one tight loop,
        avoids one Python call plus a memo lookup per element.  The values are
        identical to ``{h(x) for unique x}`` by construction.
        """
        lam = self.lam
        prefix = self._prefix
        counts: Dict[int, int] = {}
        get = counts.get
        for key in keys:
            # mix64_step(prefix, key), inlined (keys are already 64-bit).
            acc = ((prefix ^ key) + 0x9E3779B97F4A7C15) & _MASK64
            z = ((acc ^ (acc >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            value = 1 + (z ^ (z >> 31)) % lam
            if value <= sigma:
                seen = get(value)
                counts[value] = 1 if seen is None else seen + 1
        return {value for value, count in counts.items() if count == 1}

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"RepresentativeHashFunction(index={self.index}, lam={self.lam})"


class RepresentativeHashFamily:
    """An indexable family ``H = (h_i)_{i in [F]}`` of hash functions to ``[lambda]``.

    All parties constructing the family with the same ``(universe_label, lam,
    alpha, beta, nu, seed)`` obtain the *same* family, mirroring the paper's
    assumption that nodes share the (existential) family as common knowledge.
    Selecting and communicating a member costs :attr:`index_bits` bits.
    """

    def __init__(
        self,
        universe_label: str,
        universe_size: int,
        lam: int,
        alpha: float,
        beta: float,
        nu: float,
        seed: int = 0,
        sigma_cap: Optional[int] = None,
    ):
        self.universe_label = universe_label
        self.params = representative_family_parameters(
            alpha=alpha,
            beta=beta,
            nu=nu,
            lam=lam,
            universe_size=universe_size,
            sigma_cap=sigma_cap,
        )
        self._seed = mix64(seed, element_key(universe_label), self.params.lam)
        self._members: dict = {}

    # ----------------------------------------------------------------- access
    @property
    def family_seed(self) -> int:
        """The mixed seed members are derived from.

        ``RepresentativeHashFunction(family_seed, index, lam)`` rebuilds
        ``member(index)`` exactly — the identity the columnar similarity
        kernel uses to evaluate every edge's member as flat array arithmetic
        instead of building member objects.
        """
        return self._seed

    @property
    def lam(self) -> int:
        return self.params.lam

    @property
    def sigma(self) -> int:
        return self.params.sigma

    @property
    def size(self) -> int:
        return self.params.family_size

    @property
    def index_bits(self) -> int:
        return self.params.index_bits

    def member(self, index: int) -> RepresentativeHashFunction:
        """Return the ``index``-th member of the family (cached per family,
        so a member's value memo survives repeated lookups of the same index)."""
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside family of size {self.size}")
        fn = self._members.get(index)
        if fn is None:
            fn = RepresentativeHashFunction(self._seed, index, self.lam)
            self._members[index] = fn
        return fn

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index: int) -> RepresentativeHashFunction:
        return self.member(index)

    def sample_index(self, rng) -> int:
        """Pick a uniformly random member index using ``rng``."""
        return rng.randrange(self.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"RepresentativeHashFamily(label={self.universe_label!r}, "
            f"lam={self.lam}, sigma={self.sigma}, size={self.size})"
        )
