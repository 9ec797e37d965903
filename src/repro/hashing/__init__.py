"""Hashing and pseudorandomness substrate.

This package implements every pseudorandom object the paper relies on:

* the set operators ``A|_h^{<=sigma}``, ``A wedge_h B``, ``A neg_h B`` of
  Section 3.1 (:mod:`repro.hashing.setops`),
* representative hash families (Lemma 1), realised as a seeded, indexable
  family so that only the index is ever communicated
  (:mod:`repro.hashing.representative`),
* explicit pairwise-independent hash families used by the uniform
  implementations of Section 5 (:mod:`repro.hashing.pairwise`),
* approximately-universal hash families for handling huge color spaces
  (Appendix D.3, :mod:`repro.hashing.universal`),
* representative multisets / averaging samplers (Appendix B,
  :mod:`repro.hashing.multiset`),
* the error-correcting code used by the uniform ``eps-Buddy`` procedure
  (Algorithm 6, :mod:`repro.hashing.ecc`).
"""

from repro.hashing.setops import (
    low_part,
    colliding_part,
    unique_part,
)
from repro.hashing.representative import (
    RepresentativeHashFamily,
    RepresentativeHashFunction,
    representative_family_parameters,
)
from repro.hashing.pairwise import PairwiseHashFamily, PairwiseHashFunction
from repro.hashing.universal import ApproximatelyUniversalFamily
from repro.hashing.multiset import AveragingSampler, RepresentativeMultisetFamily
from repro.hashing.ecc import ErrorCorrectingCode, hamming_distance

__all__ = [
    "low_part",
    "colliding_part",
    "unique_part",
    "RepresentativeHashFamily",
    "RepresentativeHashFunction",
    "representative_family_parameters",
    "PairwiseHashFamily",
    "PairwiseHashFunction",
    "ApproximatelyUniversalFamily",
    "AveragingSampler",
    "RepresentativeMultisetFamily",
    "ErrorCorrectingCode",
    "hamming_distance",
]
