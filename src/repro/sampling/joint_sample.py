"""``JointSample`` (Algorithm 2 of the paper).

Two endpoints of an edge jointly sample an element of the intersection of
their sets without ever exchanging an element explicitly: they agree on a
representative hash function, exchange the ``σ``-bit indicators of their
unique low hash values (exactly as in ``EstimateSimilarity``), and then both
pick the same random shared hash value and output its unique preimage on
their own side.  Lemma 3: when ``|S_u ∩ S_v| >= ε·max(|S_u|, |S_v|)``, both
endpoints output the *same* element of the intersection with probability at
least ``1 − 5ε/4 − ν``.

The module also provides :func:`joint_sample_many`, the multi-element variant
mentioned after Lemma 3 (picking several indices in step 7 costs no extra
rounds).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Set

from repro.hashing.setops import unique_part
from repro.sampling.similarity import SimilarityParameters


@dataclass
class JointSampleResult:
    """Outcome of one two-party ``JointSample`` execution."""

    u_element: Optional[Hashable]
    v_element: Optional[Hashable]
    bits_exchanged: int
    shared_hash_count: int

    @property
    def agreed(self) -> bool:
        """True when both endpoints output the same (non-empty) element."""
        return self.u_element is not None and self.u_element == self.v_element

    @property
    def empty(self) -> bool:
        return self.u_element is None and self.v_element is None


def _scaled(elements: Iterable[Hashable], k: int) -> Set[Hashable]:
    """Cartesian product ``S × [k]`` used to scale small sets up (step 3)."""
    if k <= 1:
        return set(elements)
    return {(x, j) for x in elements for j in range(k)}


def _unscale(element: Hashable, k: int) -> Hashable:
    """Undo the ``S × [k]`` scale-up of Algorithm 1/2, step 3."""
    if k <= 1:
        return element
    return element[0]


def _unique_preimages(h, elements: Set[Hashable], sigma: int) -> Dict[int, Hashable]:
    """Map each low hash value with a unique preimage in ``elements`` to it."""
    survivors = unique_part(h, elements, elements, sigma)
    return {h(x): x for x in survivors}


def joint_sample(
    set_u: Iterable[Hashable],
    set_v: Iterable[Hashable],
    params: SimilarityParameters = SimilarityParameters(),
    rng: Optional[random.Random] = None,
) -> JointSampleResult:
    """Run Algorithm 2 once and return what each endpoint output."""
    results = joint_sample_many(set_u, set_v, count=1, params=params, rng=rng)
    return results[0]


def joint_sample_many(
    set_u: Iterable[Hashable],
    set_v: Iterable[Hashable],
    count: int,
    params: SimilarityParameters = SimilarityParameters(),
    rng: Optional[random.Random] = None,
) -> List[JointSampleResult]:
    """Sample ``count`` elements jointly (multi-index variant of step 7).

    All samples share the one hash-function exchange, so the bit cost of the
    batch equals the cost of a single run plus ``count`` small indices.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    set_u, set_v = set(set_u), set(set_v)
    rng = rng or random.Random(params.seed)
    if not set_u or not set_v:
        return [
            JointSampleResult(None, None, bits_exchanged=1, shared_hash_count=0)
            for _ in range(count)
        ]

    max_size = max(len(set_u), len(set_v))
    k = params.scale_factor(max_size)
    scaled_u, scaled_v = _scaled(set_u, k), _scaled(set_v, k)
    family = params.family(max_size * k, label="joint-sample")
    index = family.sample_index(rng)
    h = family.member(index)
    sigma = family.sigma

    preimages_u = _unique_preimages(h, scaled_u, sigma)
    preimages_v = _unique_preimages(h, scaled_v, sigma)
    shared_values = sorted(set(preimages_u) & set(preimages_v))
    base_bits = family.index_bits + 2 * sigma

    results: List[JointSampleResult] = []
    for _ in range(count):
        if not shared_values:
            results.append(
                JointSampleResult(None, None, bits_exchanged=base_bits, shared_hash_count=0)
            )
            continue
        # Step 7: the endpoints jointly pick a random shared hash value.  One
        # endpoint draws it and sends the log|J|-bit choice across.
        choice = rng.choice(shared_values)
        choice_bits = max(1, (len(shared_values) - 1).bit_length())
        results.append(
            JointSampleResult(
                u_element=_unscale(preimages_u[choice], k),
                v_element=_unscale(preimages_v[choice], k),
                bits_exchanged=base_bits + choice_bits,
                shared_hash_count=len(shared_values),
            )
        )
        base_bits = 0  # the hash exchange is shared by all samples of the batch
    return results


def agreement_rate(
    set_u: Iterable[Hashable],
    set_v: Iterable[Hashable],
    trials: int,
    params: SimilarityParameters = SimilarityParameters(),
    seed: int = 0,
) -> float:
    """Empirical probability that the two endpoints output the same element.

    Used by the Lemma 3 benchmark (E3): the measured rate should be at least
    ``1 − 5ε/4 − ν`` whenever the intersection is an ``ε`` fraction of the
    larger set.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    agreed = 0
    for trial in range(trials):
        result = joint_sample(set_u, set_v, params=params, rng=random.Random(seed + trial))
        if result.agreed:
            agreed += 1
    return agreed / trials
