"""Columnar execution core: flat-array state + vectorized CSR routing.

``backend="columnar"`` replaces the hot per-round Python loops of the slot
backend with flat numpy columns wherever the work is vectorizable while
keeping every observable byte — ledgers, inboxes, colorings, fault counters —
identical to the slot backend (the equivalence suite runs all four backends
against the ``dict`` reference).  The package splits along the byte-identity
seams:

* :mod:`~repro.congest.columnar.kernels` — uint64-array twins of the scalar
  splitmix64 hashing kernels (``mix64_step`` / ``combine_part_keys`` /
  ``low_unique_values``), pinned bit-for-bit;
* :mod:`~repro.congest.columnar.buffers` — CSR-offset message round buffers
  (one ``offsets``/``storage`` pair per round, written sender-side, read
  receiver-side in slot order) and packed cut-edge batches for the sharded
  router;
* :mod:`~repro.congest.columnar.transport` — the ``ColumnarTransport``
  backend (vectorized broadcast routing and chunked-round accounting);
* :mod:`~repro.congest.columnar.sweep` — the vectorized
  ``EstimateSimilarity`` kernel behind the ACD buddy test, triangle
  detection and sparsity estimation, the dominant compute of every large
  run;
* :mod:`~repro.congest.columnar.faults` — vectorized twins of the fault
  layer's per-edge drop/corrupt/crash decisions (pure functions of
  ``(master_seed, round, edge)``, matching ``FaultyTransport`` bit-for-bit);
* :mod:`~repro.congest.columnar.state` — flat boolean slot masks the
  simulator keeps in sync with per-node halt/crash state.

numpy is an *optional* dependency of the repo as a whole: every module here
degrades to ``HAVE_NUMPY = False`` importably, and only constructing the
columnar backend (or calling a kernel) raises the clean :class:`ImportError`
below.  The dict/batch/slot backends never touch this package.
"""

from __future__ import annotations

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    HAVE_NUMPY = False

#: The one message a numpy-less install sees when asking for the columnar
#: backend — actionable, and explicit that the pure-Python backends remain.
NUMPY_HINT = (
    "the 'columnar' backend requires numpy, which is not installed; "
    "install numpy or use backend='slot' (the pure-Python large-n fast "
    "path, byte-identical to columnar)"
)


def require_numpy() -> None:
    """Raise a clean, actionable ImportError when numpy is missing."""
    if not HAVE_NUMPY:
        raise ImportError(NUMPY_HINT)
