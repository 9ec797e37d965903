"""Deterministic, hierarchical random-number streams.

Distributed algorithms are awkward to test when every node shares one global
RNG: the order in which nodes are processed then changes their random choices.
``RngStream`` derives an independent ``random.Random`` per (seed, label) pair
so that per-node randomness is stable regardless of iteration order, which
makes the simulator reproducible and the tests deterministic.
"""

from __future__ import annotations

import hashlib
import random


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


class RngStream:
    """A labelled source of independent RNG sub-streams.

    Example
    -------
    >>> stream = RngStream(7)
    >>> a = stream.for_node(3)
    >>> b = stream.for_node(3)
    >>> a.random() == b.random()
    True
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def for_node(self, node: object, *labels: object) -> random.Random:
        """RNG dedicated to ``node`` (optionally further labelled)."""
        return derive_rng(self.seed, "node", node, *labels)

    def for_edge(self, u: object, v: object, *labels: object) -> random.Random:
        """RNG shared by the two endpoints of edge ``{u, v}``.

        The paper repeatedly has the two endpoints of an edge "jointly pick a
        random number"; in a real network one endpoint picks and sends it.  In
        the simulator we derive it from the unordered edge so both endpoints
        agree, and we charge the bits in the calling primitive.
        """
        key = tuple(sorted((repr(u), repr(v))))
        return derive_rng(self.seed, "edge", key, *labels)
