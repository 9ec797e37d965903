"""Deterministic, hierarchical random-number streams.

Distributed algorithms are awkward to test when every node shares one global
RNG: the order in which nodes are processed then changes their random choices.
``RngStream`` derives an independent stream per (seed, label) pair so that
per-node and per-edge randomness is stable regardless of iteration order,
which makes the simulator reproducible and the tests deterministic.

Node streams are ``random.Random`` (MT19937) instances seeded from a SHA-256
digest.  Edge streams are splitmix64 counter streams (:class:`EdgeStream`):
a draw is a pure function of the edge's key and a counter, so
:meth:`RngStream.edge_randrange` computes the draws of a whole edge list as
array arithmetic, bit for bit equal to the scalar stream.
"""

from __future__ import annotations

import hashlib
import random

from repro.hashing.keys import element_key, mix64, mix64_step

#: Domain tag mixed into every edge key (ASCII ``EDGE``).
EDGE_TAG = 0x45444745


def _digest_seed(*parts: object) -> int:
    """Derive a 64-bit seed from arbitrary labelled parts."""
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seed(*parts: object) -> int:
    """Hash arbitrary labelled parts into a stable 31-bit seed.

    Uses SHA-256 rather than ``hash()`` so the value is identical across
    processes and interpreter runs (``hash()`` is salted per process).  This
    is the seed-derivation chain shared by the experiment specs
    (:mod:`repro.experiments.spec`) and the fault-injection layer
    (:mod:`repro.faults`): both hash their workload description through it,
    so a (seed, plan) pair reproduces bit-identically everywhere.
    """
    text = ":".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1)


def derive_rng(seed: int, *labels: object) -> random.Random:
    """Return a ``random.Random`` deterministically derived from labels."""
    return random.Random(_digest_seed(seed, *labels))


class EdgeStream:
    """The random stream the two endpoints of one edge share.

    Output ``j = 1, 2, ...`` is ``mix64_step(key, j)``.  :meth:`randrange` is
    the one draw the protocols make from an edge stream: a hash-family index
    (``sample_index``), possibly several in a row (rejection sampling for a
    low-collision member).
    """

    __slots__ = ("_key", "_count")

    def __init__(self, key: int):
        self._key = key
        self._count = 0

    def randrange(self, n: int) -> int:
        """A uniform integer in ``[0, n)``.

        With ``k = n.bit_length()``, the value is the top ``k`` bits of the
        next output (of the next ``⌈k/64⌉`` outputs concatenated, first most
        significant, when ``k > 64``), redrawn until it is below ``n``.
        """
        if n <= 0:
            raise ValueError(f"empty range for randrange({n})")
        k = n.bit_length()
        words = (k + 63) // 64
        while True:
            value = 0
            for _ in range(words):
                self._count += 1
                value = (value << 64) | mix64_step(self._key, self._count)
            value >>= 64 * words - k
            if value < n:
                return value


class RngStream:
    """A labelled source of independent RNG sub-streams.

    Example
    -------
    >>> stream = RngStream(7)
    >>> a = stream.for_node(3)
    >>> b = stream.for_node(3)
    >>> a.random() == b.random()
    True
    >>> stream.for_edge(1, 2).randrange(100) == stream.for_edge(2, 1).randrange(100)
    True
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def for_node(self, node: object, *labels: object) -> random.Random:
        """RNG dedicated to ``node`` (optionally further labelled)."""
        return derive_rng(self.seed, "node", node, *labels)

    def for_edge(self, u: object, v: object, *labels: object) -> EdgeStream:
        """Stream shared by the two endpoints of edge ``{u, v}``.

        The paper repeatedly has the two endpoints of an edge "jointly pick a
        random number"; in a real network one endpoint picks and sends it.  In
        the simulator we derive it from the unordered edge so both endpoints
        agree, and we charge the bits in the calling primitive.  The key is
        ``mix64(element_key(seed), EDGE_TAG, lo, hi, *label keys)`` with
        ``lo <= hi`` the endpoints' ``element_key`` values, so both
        orientations give the same stream.
        """
        lo, hi = sorted((element_key(u), element_key(v)))
        return EdgeStream(
            mix64(element_key(self.seed), EDGE_TAG, lo, hi, *map(element_key, labels))
        )

    def edge_randrange(self, u_keys, v_keys, n, *labels: object):
        """Array twin of ``for_edge(u, v, *labels).randrange(n)``, one draw per edge.

        ``u_keys`` and ``v_keys`` are aligned 1-D arrays of the endpoints'
        ``element_key`` values (``element_keys_array`` of the nodes), and
        ``n`` is one range size or one per edge, in ``[1, 2**64)``.  Returns
        the draws as a uint64 array, bit for bit equal to the scalar stream:
        one vectorized rejection round per output index.
        """
        # Imported here: numpy stays out of ``import repro`` until a run needs it.
        import numpy as np

        from repro.congest.columnar.kernels import mix64_step_vec, mix64_vec

        u_keys = np.asarray(u_keys, dtype=np.uint64)
        v_keys = np.asarray(v_keys, dtype=np.uint64)
        keys = mix64_vec(element_key(self.seed), EDGE_TAG, np.minimum(u_keys, v_keys),
                         np.maximum(u_keys, v_keys), *map(element_key, labels))
        sizes = np.broadcast_to(np.asarray(n, dtype=np.uint64), keys.shape)
        if (sizes == 0).any():
            raise ValueError("empty range for randrange(0)")
        distinct, which = np.unique(sizes, return_inverse=True)
        shifts = np.array([64 - int(size).bit_length() for size in distinct.tolist()],
                          dtype=np.uint64)[which]
        draws = np.empty(keys.size, dtype=np.uint64)
        pending = np.arange(keys.size)
        j = 0
        while pending.size:
            j += 1
            values = mix64_step_vec(keys[pending], np.uint64(j)) >> shifts[pending]
            hit = values < sizes[pending]
            draws[pending[hit]] = values[hit]
            pending = pending[~hit]
        return draws
