"""repro.obs.forensics — determinism forensics: digests, diff, bisection.

The canonical encodings and multiset accumulators behind the chained
per-round digest that ``RoundTracer(digest=True)`` adds to its round events,
and the ``repro diff`` debugger that aligns two run-event streams
(``TRACE_*`` or ``DIGEST_*``), localizes the first divergent (round, phase),
and bisects to the first divergent node via a round-windowed fine mode.

Observation-only, like the rest of :mod:`repro.obs`: no RNG consumed, no
state mutated, digest-enabled runs byte-identical to untraced ones.
"""

from repro.obs.forensics.diff import (
    BisectReport,
    Divergence,
    FineDivergence,
    bisect_divergence,
    first_divergence,
    render_bisect,
    render_divergence,
    select_trial,
    spec_from_payload,
    spec_payload,
    split_trials,
)
from repro.obs.forensics.digest import (
    CHAIN_INIT,
    MultisetDigest,
    canonical_bytes,
    hex16,
    payload_hash,
)

__all__ = [
    "BisectReport",
    "CHAIN_INIT",
    "Divergence",
    "FineDivergence",
    "MultisetDigest",
    "bisect_divergence",
    "canonical_bytes",
    "first_divergence",
    "hex16",
    "payload_hash",
    "render_bisect",
    "render_divergence",
    "select_trial",
    "spec_from_payload",
    "spec_payload",
    "split_trials",
]
