"""Columnar execution core: the engine's fast path.

``backend="columnar"`` (the default) replaces the hot per-round Python loops
of the ``dict`` reference backend with flat numpy columns wherever the work
is vectorizable, while keeping every observable byte — ledgers, delivered
payloads, colorings, fault counters — identical to that oracle (the
equivalence suite runs both).  The package splits along the byte-identity
seams:

* :mod:`~repro.congest.columnar.kernels` — uint64-array twins of the scalar
  splitmix64 hashing kernels (``mix64_step`` / ``combine_part_keys`` /
  ``low_unique_values``), pinned bit-for-bit;
* :mod:`~repro.congest.columnar.transport` — the ``ColumnarTransport``
  backend: the ``dict`` oracle with one broadcast, accounted in one
  vectorized pass and delivered as columns gathered from the topology CSR;
* :mod:`~repro.congest.columnar.sweep` — the vectorized
  ``EstimateSimilarity`` kernel behind the ACD buddy test, triangle
  detection and sparsity estimation.
"""
