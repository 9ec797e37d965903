"""Communication-efficient estimation and sampling primitives (Section 3).

These are the direct applications of representative hash functions:

* :mod:`repro.sampling.similarity` — ``EstimateSimilarity`` (Algorithm 1,
  Lemma 2),
* :mod:`repro.sampling.joint_sample` — ``JointSample`` (Algorithm 2, Lemma 3),
* :mod:`repro.sampling.sparsity` — ``EstimateSparsity`` for global and local
  sparsity (Algorithm 3, Lemmas 4–5),
* :mod:`repro.sampling.triangles` — local triangle-richness detection
  (Theorem 2),
* :mod:`repro.sampling.four_cycles` — local 4-cycle-richness detection
  (Theorem 3).

Sampling from set *differences* — a node's trial colors that no neighbour
is also trying — runs inside :mod:`repro.core.multitrial` (steps 3–4), its
one user.
"""

from repro.sampling.similarity import (
    SimilarityParameters,
    SimilarityResult,
    estimate_similarity_on_edges,
)
from repro.sampling.joint_sample import JointSampleResult, joint_sample, joint_sample_many
from repro.sampling.sparsity import (
    SparsityEstimates,
    estimate_global_sparsity,
    estimate_local_sparsity,
)
from repro.sampling.triangles import TriangleDetectionResult, detect_triangle_rich_edges
from repro.sampling.four_cycles import FourCycleDetectionResult, detect_four_cycle_rich_pairs

__all__ = [
    "SimilarityParameters",
    "SimilarityResult",
    "estimate_similarity_on_edges",
    "JointSampleResult",
    "joint_sample",
    "joint_sample_many",
    "SparsityEstimates",
    "estimate_global_sparsity",
    "estimate_local_sparsity",
    "TriangleDetectionResult",
    "detect_triangle_rich_edges",
    "FourCycleDetectionResult",
    "detect_four_cycle_rich_pairs",
]
