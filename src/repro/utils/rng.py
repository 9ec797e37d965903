"""Deterministic, hierarchical random-number streams.

Distributed algorithms are awkward to test when every node shares one global
RNG: the order in which nodes are processed then changes their random choices.
``RngStream`` derives an independent stream per (seed, label) pair so that
per-node and per-edge randomness is stable regardless of iteration order,
which makes the simulator reproducible and the tests deterministic.

Node and edge streams are both splitmix64 counter streams
(:class:`CounterStream`): a draw is a pure function of the stream's key and a
counter, so :meth:`RngStream.node_random`, :meth:`RngStream.node_randrange`
and :meth:`RngStream.edge_randrange` compute the first draw of every stream
in a list as array arithmetic, bit for bit equal to the scalar streams.
"""

from __future__ import annotations

import hashlib

from repro.hashing.keys import element_key, mix64, mix64_step

#: Domain tag mixed into every edge key (ASCII ``EDGE``).
EDGE_TAG = 0x45444745
#: Domain tag mixed into every node key (ASCII ``NODE``).
NODE_TAG = 0x4E4F4445


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


class CounterStream:
    """One node's or one edge's random stream.

    Output ``j = 1, 2, ...`` is ``mix64_step(key, j)``.  Every draw is built
    from :meth:`randrange`: the protocols draw hash-family indices
    (``sample_index``), trial colors (:meth:`sample`) and a leader's deal
    order (:meth:`shuffle`).
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

    def sample(self, population, k: int) -> list:
        """``k`` distinct members of ``population``, in draw order.

        A partial Fisher-Yates shuffle of ``pool = list(population)``: for
        ``i`` in ``range(k)``, swap ``pool[i]`` with
        ``pool[i + randrange(len(pool) - i)]``; return ``pool[:k]``.
        """
        pool = list(population)
        for i in range(k):
            j = i + self.randrange(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def shuffle(self, x: list) -> None:
        """Shuffle ``x`` in place: for ``i`` from the end down to 1, swap
        ``x[i]`` with ``x[randrange(i + 1)]``."""
        for i in range(len(x) - 1, 0, -1):
            j = self.randrange(i + 1)
            x[i], x[j] = x[j], x[i]


def _first_randrange(keys, n):
    """The first ``randrange(n)`` of the counter stream of each key.

    ``keys`` is a uint64 array of stream keys and ``n`` one range size or
    one per key, in ``[1, 2**64)``.  One vectorized rejection round per
    output index; returns a uint64 array.
    """
    import numpy as np

    from repro.congest.columnar.kernels import mix64_step_vec

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


class RngStream:
    """A labelled source of independent RNG sub-streams.

    Example
    -------
    >>> stream = RngStream(7)
    >>> stream.for_node(3).randrange(100) == stream.for_node(3).randrange(100)
    True
    >>> stream.for_edge(1, 2).randrange(100) == stream.for_edge(2, 1).randrange(100)
    True
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def for_node(self, node: object, *labels: object) -> CounterStream:
        """Stream dedicated to ``node`` (optionally further labelled).

        The key is ``mix64(element_key(seed), NODE_TAG, element_key(node),
        *label keys)``.
        """
        return CounterStream(
            mix64(element_key(self.seed), NODE_TAG, element_key(node), *map(element_key, labels))
        )

    def for_edge(self, u: object, v: object, *labels: object) -> CounterStream:
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
        return CounterStream(
            mix64(element_key(self.seed), EDGE_TAG, lo, hi, *map(element_key, labels))
        )

    def _node_keys(self, nodes, labels):
        # Imported here: numpy stays out of ``import repro`` until a run needs it.
        from repro.congest.columnar.kernels import element_keys_array, mix64_vec

        return mix64_vec(element_key(self.seed), NODE_TAG, element_keys_array(nodes),
                         *map(element_key, labels))

    def node_random(self, nodes, *labels: object):
        """One uniform float in ``[0, 1)`` per node, as a float64 array.

        Node ``v``'s value is ``(output 1 >> 11) · 2**-53`` of
        ``for_node(v, *labels)``: its first output's top 53 bits.
        """
        import numpy as np

        from repro.congest.columnar.kernels import mix64_step_vec

        top = mix64_step_vec(self._node_keys(nodes, labels), np.uint64(1)) >> np.uint64(11)
        return top.astype(np.float64) * 2.0 ** -53

    def node_randrange(self, nodes, n, *labels: object):
        """Array twin of ``for_node(v, *labels).randrange(n)``, one draw per node.

        ``n`` is one range size or one per node, in ``[1, 2**64)``.  Returns
        the draws as a uint64 array, bit for bit equal to the scalar stream.
        """
        return _first_randrange(self._node_keys(nodes, labels), n)

    def edge_randrange(self, u_keys, v_keys, n, *labels: object):
        """Array twin of ``for_edge(u, v, *labels).randrange(n)``, one draw per edge.

        ``u_keys`` and ``v_keys`` are aligned 1-D arrays of the endpoints'
        ``element_key`` values (``element_keys_array`` of the nodes), and
        ``n`` is one range size or one per edge, in ``[1, 2**64)``.  Returns
        the draws as a uint64 array, bit for bit equal to the scalar stream.
        """
        import numpy as np

        from repro.congest.columnar.kernels import mix64_vec

        u_keys = np.asarray(u_keys, dtype=np.uint64)
        v_keys = np.asarray(v_keys, dtype=np.uint64)
        keys = mix64_vec(element_key(self.seed), EDGE_TAG, np.minimum(u_keys, v_keys),
                         np.maximum(u_keys, v_keys), *map(element_key, labels))
        return _first_randrange(keys, n)
