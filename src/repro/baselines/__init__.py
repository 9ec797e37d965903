"""Baseline algorithms the paper compares against (conceptually).

* :mod:`repro.baselines.random_trial` — the classical ``O(log n)``-round
  random color trial algorithm (Johansson / Luby style), which works unchanged
  in CONGEST and is the baseline D1LC/D1C algorithm the paper improves on;
* :mod:`repro.baselines.naive_acd` — an almost-clique decomposition that ships
  entire neighbourhoods (the ``Ω(Δ)``-round approach the paper's O(1)-round
  ACD replaces);
* :mod:`repro.baselines.naive_multitrial` — a MultiTrial that sends the tried
  colors verbatim (``x · log|C|`` bits), the naive implementation the paper's
  hashing-based MultiTrial replaces.
"""

from repro.baselines.random_trial import johansson_coloring
from repro.baselines.naive_acd import naive_compute_acd
from repro.baselines.naive_multitrial import naive_multi_trial

__all__ = [
    "johansson_coloring",
    "naive_compute_acd",
    "naive_multi_trial",
]
