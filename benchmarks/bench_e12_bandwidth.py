"""E12 — Bandwidth ablation: hashed primitives vs their naive counterparts.

Two head-to-head comparisons at a strict ``log2 n``-bit budget:

* MultiTrial (Algorithm 4) vs a naive variant that lists its x tried colors
  verbatim — the naive cost grows with ``x·log|C|`` while the hashed cost is a
  fixed ``σ``-bit indicator;
* the O(1)-round ACD of Section 4.2 vs a naive ACD that ships entire
  neighbourhoods (Θ(Δ·log n) bits per edge).

This is the experiment that shows *why* the paper's techniques are needed in
CONGEST at all.

The workload now lives in the experiment subsystem: this benchmark is a thin
wrapper over the ``e12``-tagged scenarios of the ``bandwidth`` suite.  Hashed
and naive variants share family parameters and base seed, so the runner hands
both the same graphs and the same solver randomness.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from benchmarks.conftest import emit, run_once
from repro.congest import DEFAULT_BACKEND, TRANSPORT_BACKENDS
from repro.experiments import get_suite, run_scenarios


def _paired_rows(result, specs, kind: str, workload_of):
    """Pair each hashed scenario with its naive twin into one table row."""
    pairs = {}
    for spec in specs:
        trial = result.rows_for(spec.name)[0]
        variant = "hashed" if "hashed" in spec.tags else "naive"
        pairs.setdefault(workload_of(spec, trial), {})[variant] = trial
    rows = []
    for workload, variants in pairs.items():
        hashed, naive = variants["hashed"], variants["naive"]
        row = {
            "experiment": kind,
            "x / workload": workload,
            "hashed rounds": hashed["rounds"],
            "naive rounds": naive["rounds"],
            "hashed colored": hashed.get("colored", hashed.get("cliques")),
            "naive colored": naive.get("colored", naive.get("cliques")),
        }
        if kind == "ACD":
            row["hashed bits/edge"] = round(hashed["bits_per_edge"])
            row["naive bits/edge"] = round(naive["bits_per_edge"])
        rows.append(row)
    return rows


def measure(backend: str = DEFAULT_BACKEND):
    specs = [replace(spec, backend=backend)
             for spec in get_suite("bandwidth") if "e12" in spec.tags]
    result = run_scenarios(specs, suite="bandwidth")
    multitrial = [s for s in specs if "multitrial" in s.tags]
    acd = [s for s in specs if "acd" in s.tags]
    rows = _paired_rows(result, multitrial, "MultiTrial",
                        lambda spec, trial: trial["tries"])
    rows += _paired_rows(result, acd, "ACD",
                         lambda spec, trial: f"Δ≈{spec.family_params['clique_size']}")
    return rows


@pytest.mark.parametrize("backend", TRANSPORT_BACKENDS)
def test_e12_bandwidth_ablation(benchmark, backend):
    rows = run_once(benchmark, lambda: measure(backend))
    emit(benchmark, "E12 — bandwidth ablation: hashed vs naive primitives "
                    f"(rounds at a strict log n budget; backend={backend}; "
                    "'colored' = nodes colored / cliques found)",
         rows)
    multitrial = [r for r in rows if r["experiment"] == "MultiTrial"]
    # The naive cost grows with x; the hashed cost stays flat.
    naive_growth = multitrial[-1]["naive rounds"] - multitrial[0]["naive rounds"]
    hashed_growth = multitrial[-1]["hashed rounds"] - multitrial[0]["hashed rounds"]
    assert hashed_growth <= naive_growth
    # The naive ACD ships Θ(Δ·log n) bits per edge — growing with Δ — while the
    # hashed ACD's per-edge cost saturates at the (Δ-independent) σ window.
    acd = [r for r in rows if r["experiment"] == "ACD"]
    naive_bits_growth = acd[-1]["naive bits/edge"] / max(1, acd[0]["naive bits/edge"])
    hashed_bits_growth = acd[-1]["hashed bits/edge"] / max(1, acd[0]["hashed bits/edge"])
    assert hashed_bits_growth <= naive_bits_growth + 0.5
