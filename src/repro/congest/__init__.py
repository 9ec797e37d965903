"""Synchronous CONGEST / LOCAL network engine.

The engine is the substrate every distributed primitive in this
reproduction runs on.  It is layered (see DESIGN.md):

* :class:`~repro.congest.topology.Topology` — immutable CSR-style adjacency;
* :class:`~repro.congest.transport.DictTransport` — the delivery
  mechanics: the reference oracle, and the root of the two other
  transports (:class:`~repro.congest.columnar.transport.ColumnarTransport`,
  the default numpy fast path, and the fault transport of
  :mod:`repro.faults`);
* :class:`~repro.metrics.ledger.Ledger` — the bandwidth accounting: the
  aggregates plus one record per round.

A :class:`~repro.congest.network.Network` facade wires the three together and
exposes the synchronous communication primitives
(:meth:`~repro.congest.network.Network.exchange`, which returns a
``{(sender, receiver): payload}`` mapping, and
:meth:`~repro.congest.network.Network.broadcast`, which returns the round's
deliveries as :class:`~repro.congest.transport.Deliveries` columns on every
backend).  Each call is one CONGEST round: the round counter advances and
each per-edge payload is charged its bit size against the bandwidth budget
(``O(log n)`` bits in CONGEST, unlimited in LOCAL mode).  Oversized
messages raise :class:`~repro.congest.errors.BandwidthExceeded`, so the
coloring algorithms cannot accidentally cheat the model.  Every solver
drives its rounds through these calls directly, keeping per-node state in
its own structures.
"""

from repro.congest.errors import BandwidthExceeded, CongestError, ProtocolError
from repro.congest.bandwidth import payload_bits
from repro.congest.message import Message
from repro.congest.topology import Topology
from repro.congest.transport import (
    DictTransport,
    TRANSPORT_BACKENDS,
    make_transport,
)
from repro.congest.network import DEFAULT_BACKEND, Network, RoundRecord

__all__ = [
    "BandwidthExceeded",
    "CongestError",
    "ProtocolError",
    "payload_bits",
    "Message",
    "Topology",
    "DictTransport",
    "TRANSPORT_BACKENDS",
    "make_transport",
    "DEFAULT_BACKEND",
    "Network",
    "RoundRecord",
]
