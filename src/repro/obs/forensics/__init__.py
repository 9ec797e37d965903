"""repro.obs.forensics — determinism forensics: digests, diff, bisection.

Chained per-round state digests (:class:`DigestTracer` on the PR 6 tracer
seam), byte-reproducible ``DIGEST_<scenario>.jsonl`` artifacts, and the
``repro diff`` debugger that aligns two digest streams, localizes the first
divergent (round, phase), and bisects to the first divergent node
via a round-windowed fine mode.

Observation-only, like the rest of :mod:`repro.obs`: no RNG consumed, no
state mutated, digest-enabled runs byte-identical to untraced ones.
"""

from repro.obs.forensics.artifacts import (
    DIGEST_PREFIX,
    DIGEST_SUFFIX,
    digest_filename,
    load_digests,
    write_digests,
)
from repro.obs.forensics.diff import (
    BisectReport,
    Divergence,
    FineDivergence,
    bisect_divergence,
    first_divergence,
    render_bisect,
    render_divergence,
    spec_from_payload,
    spec_payload,
    split_trials,
)
from repro.obs.forensics.digest import (
    CHAIN_INIT,
    DIGEST_SCHEMA,
    MultisetDigest,
    canonical_bytes,
    hex16,
    payload_hash,
)
from repro.obs.forensics.tracer import DigestTracer

__all__ = [
    "BisectReport",
    "CHAIN_INIT",
    "DIGEST_PREFIX",
    "DIGEST_SCHEMA",
    "DIGEST_SUFFIX",
    "DigestTracer",
    "Divergence",
    "FineDivergence",
    "MultisetDigest",
    "bisect_divergence",
    "canonical_bytes",
    "digest_filename",
    "first_divergence",
    "hex16",
    "load_digests",
    "payload_hash",
    "render_bisect",
    "render_divergence",
    "spec_from_payload",
    "spec_payload",
    "split_trials",
    "write_digests",
]
