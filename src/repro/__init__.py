"""Reproduction of *Overcoming Congestion in Distributed Coloring* (PODC 2022).

The package provides:

* ``repro.congest`` — a synchronous CONGEST/LOCAL simulator with per-round,
  per-edge bandwidth accounting, on two byte-identical transports: the
  ``dict`` reference oracle and the default ``columnar`` numpy fast path;
* ``repro.hashing`` — representative hash families and the explicit
  pseudorandom objects of the paper (pairwise-independent hashing, averaging
  samplers, error-correcting codes, universal hashing for huge color spaces);
* ``repro.sampling`` — EstimateSimilarity, JointSample, sparsity estimation,
  and local triangle / 4-cycle detection;
* ``repro.core`` — the (degree+1)-list-coloring pipeline (MultiTrial,
  almost-clique decomposition, SlackColor, dense/sparse phases, Theorem 1);
* ``repro.baselines`` — Johansson-style random trials, naive high-bandwidth
  implementations, and a centralized greedy reference;
* ``repro.graphs`` / ``repro.metrics`` — instance generators, ground-truth
  properties, and experiment reporting.

Quick start::

    import networkx as nx
    from repro import solve_d1c

    result = solve_d1c(nx.gnp_random_graph(200, 0.1, seed=1), seed=0)
    assert result.is_valid
    print(result.summary())
"""

from repro.core import (
    ColoringInstance,
    ColoringParameters,
    ColoringResult,
    ColorSpace,
    solve_d1c,
    solve_d1lc,
    solve_delta_plus_one,
    validate_coloring,
)
from repro.congest import Network

__version__ = "1.0.0"

__all__ = [
    "ColoringInstance",
    "ColoringParameters",
    "ColoringResult",
    "ColorSpace",
    "Network",
    "solve_d1c",
    "solve_d1lc",
    "solve_delta_plus_one",
    "validate_coloring",
    "__version__",
]
