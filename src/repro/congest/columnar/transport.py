"""The ``columnar`` transport backend: the engine's fast path.

:class:`ColumnarTransport` keeps the reference backend's observable contract
— same delivered payloads, same sender-major inbox insertion order, same
ledger rounds/labels/counts/bits/maxima — while moving the per-round
arithmetic off the Python interpreter:

* ``exchange`` sizes payloads through one sizing memo pooled across rounds
  (keyed by payload identity, cleared at the start of every round) and
  defers the bandwidth check to a single audit after sizing;
* ``broadcast`` sizes and accounts all senders in one vectorized pass over
  the topology CSR (degree gather, ``bits * degree`` sums, worst-edge argmax)
  and expands the round into one :class:`~repro.congest.columnar.buffers.
  CsrRoundBuffer` ``offsets``/``storage`` pair instead of per-sender Python
  slices;
* ``broadcast_discard`` charges a broadcast whose inboxes the caller throws
  away (the ACD's participation/degree announcements) without materialising
  a single inbox dict;
* chunked-stream accounting (``exchange_chunked``) replaces the per-chunk
  histogram dicts with ``np.bincount`` / ``np.maximum.at`` over the size
  array — identical records, O(edges) numpy instead of O(edges) Python.

The byte-identity of every path against the ``dict`` oracle is pinned by
``tests/test_columnar.py`` and the two-backend equivalence matrix.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.congest.columnar.buffers import CsrRoundBuffer
from repro.congest.errors import BandwidthExceeded
from repro.congest.message import Message
from repro.congest.topology import Topology
from repro.congest.transport import EMPTY_INBOX, Transport, _memoized_bits
from repro.metrics.ledger import Ledger

Node = Any
DirectedEdge = Tuple[Node, Node]

#: Below this many edges the scalar chunk-accounting loop wins (array setup
#: costs more than it saves); the records are identical either way.
_VECTOR_MIN_SIZES = 1024
#: Degenerate budget/size combinations (absurdly many chunk rounds would
#: allocate absurd histograms) fall back to the scalar path, which streams.
_VECTOR_MAX_ROUNDS = 4_000_000


class ColumnarTransport(Transport):
    """Fast path: pooled sizing, deferred audit, vectorized CSR routing.

    On violating rounds the *reported* error may differ from ``dict``: edges
    are validated inline but the budget audit is deferred to the end of the
    round, so with several violations in one round ``dict`` raises for the
    first offending entry in iteration order while ``columnar`` raises the
    edge error it hits first or a :class:`BandwidthExceeded` for the largest
    payload (a broadcast's worst edge is found in CSR order).  Either way the
    round is rejected before it is recorded.
    """

    name = "columnar"
    #: The vectorized ``EstimateSimilarity`` kernel
    #: (:mod:`repro.congest.columnar.sweep`) runs only on a transport that
    #: sets this, for the ACD, triangle detection and sparsity alike.  The
    #: ``dict`` oracle, and a ``FaultyTransport`` wrapping this one (it does
    #: not forward the flag), take the scalar reference sweep.
    supports_columnar_sweep = True

    def __init__(self, topology: Topology, mode: str, bandwidth_bits: int,
                 ledger: Ledger):
        super().__init__(topology, mode, bandwidth_bits, ledger)
        self._size_memo: Dict[int, int] = {}
        # array("l") exposes the buffer protocol, so these are zero-copy
        # int64 views of the topology CSR.
        self._np_indptr = np.asarray(topology.indptr, dtype=np.int64)
        self._np_indices = np.asarray(topology.indices, dtype=np.int64)
        self._np_degrees = np.diff(self._np_indptr)

    def _round_memo(self) -> Dict[int, int]:
        """The pooled payload-sizing memo, invalidated (cleared) for a new round.

        The "generation" of an ``id()`` key is the round that computed it: a
        payload object is only guaranteed alive while its round's message
        mapping holds it, so entries never survive into the next round.
        """
        memo = self._size_memo
        memo.clear()
        return memo

    def _sizes(self, messages: Mapping[DirectedEdge, Any]) -> Dict[DirectedEdge, int]:
        size_memo = self._round_memo()
        return {
            edge: _memoized_bits(payload, size_memo)
            for edge, payload in messages.items()
        }

    # -------------------------------------------------------------- exchange
    def exchange(self, messages: Mapping[DirectedEdge, Any],
                 label: str = "exchange") -> Dict[DirectedEdge, Any]:
        neighbor_sets = self.topology.neighbor_sets
        total_bits = 0
        max_edge_bits = 0
        worst_edge: Optional[DirectedEdge] = None
        delivered: Dict[DirectedEdge, Any] = {}
        size_memo = self._round_memo()
        for edge, payload in messages.items():
            sender, receiver = edge
            nbrs = neighbor_sets.get(sender)
            if nbrs is None or receiver not in nbrs:
                self._validate_edge(sender, receiver)  # raises the reference error
            bits = _memoized_bits(payload, size_memo)
            delivered[edge] = payload.content if isinstance(payload, Message) else payload
            total_bits += bits
            if bits > max_edge_bits:
                max_edge_bits = bits
                worst_edge = edge
        if (
            self.mode == "congest"
            and max_edge_bits > self.bandwidth_bits
            and worst_edge is not None
        ):
            raise BandwidthExceeded(
                worst_edge, max_edge_bits, self.bandwidth_bits, label
            )
        self.ledger.record_round(label, len(delivered), total_bits, max_edge_bits)
        return delivered

    # ------------------------------------------------------------- broadcast
    def _account_broadcast(
        self, senders: List[Node], slots: "np.ndarray", bits: "np.ndarray",
        label: str,
    ) -> Tuple[int, int, int]:
        """Vectorized ledger arithmetic for one broadcast round.

        Returns ``(message_count, total_bits, max_edge_bits)`` after the
        budget audit, matching a running per-sender accounting loop:
        isolated senders contribute nothing, and the audited worst edge is
        the first sender (in send order) attaining the maximal per-edge bits,
        paired with the head of its CSR row.
        """
        degrees = self._np_degrees[slots]
        message_count = int(degrees.sum())
        if message_count == 0:
            return 0, 0, 0
        total_bits = int((bits * degrees).sum())
        nonzero = degrees > 0
        max_edge_bits = int(bits[nonzero].max())
        if self.mode == "congest" and max_edge_bits > self.bandwidth_bits:
            first = int(np.flatnonzero(nonzero & (bits == max_edge_bits))[0])
            worst_slot = int(slots[first])
            worst_edge = (
                senders[first],
                self.topology.nodes[int(self._np_indices[int(self._np_indptr[worst_slot])])],
            )
            raise BandwidthExceeded(
                worst_edge, max_edge_bits, self.bandwidth_bits, label
            )
        return message_count, total_bits, max_edge_bits

    def _collect_senders(
        self, values: Mapping[Node, Any]
    ) -> Tuple[List[Node], List[Any], "np.ndarray", "np.ndarray"]:
        """Scalar prologue: slot + sized bits + unwrapped content per sender.

        Sizing goes through the pooled identity memo (``_round_memo``), and
        an unknown sender raises the canonical ProtocolError at the same
        position in send order.
        """
        topology = self.topology
        node_index = topology.node_index
        count = len(values)
        slots = np.empty(count, dtype=np.int64)
        bits = np.empty(count, dtype=np.int64)
        senders: List[Node] = []
        contents: List[Any] = []
        size_memo = self._round_memo()
        pos = 0
        for sender, payload in values.items():
            i = node_index.get(sender)
            if i is None:
                topology.neighbors(sender)  # raises the canonical ProtocolError
            slots[pos] = i
            bits[pos] = _memoized_bits(payload, size_memo)
            senders.append(sender)
            contents.append(payload.content if isinstance(payload, Message) else payload)
            pos += 1
        return senders, contents, slots, bits

    def broadcast(
        self,
        values: Mapping[Node, Any],
        label: str = "broadcast",
    ) -> Dict[Node, Mapping[Node, Any]]:
        nodes = self.topology.nodes
        senders, contents, slots, bits = self._collect_senders(values)
        message_count, total_bits, max_edge_bits = self._account_broadcast(
            senders, slots, bits, label
        )
        buffer = CsrRoundBuffer.from_broadcast(
            self._np_indptr, self._np_indices, slots, contents
        )
        # Replay the buffer receiver-side.  Storage order is sender-major, so
        # every receiver sees its senders in send order (the reference
        # backend's inbox insertion sequence), and slot-indexed boxes replace
        # per-node dict lookups in the one loop that must stay Python
        # (payloads are boxed).
        boxes: List[Any] = [EMPTY_INBOX] * len(nodes)
        offsets = buffer.offsets.tolist()
        receivers = buffer.receiver_slots.tolist()
        payloads = buffer.storage.tolist()
        for i, sender in enumerate(senders):
            for p in range(offsets[i], offsets[i + 1]):
                j = receivers[p]
                box = boxes[j]
                if box is EMPTY_INBOX:
                    box = {}
                    boxes[j] = box
                box[sender] = payloads[p]
        self.ledger.record_round(label, message_count, total_bits, max_edge_bits)
        return dict(zip(nodes, boxes))

    def broadcast_discard(
        self, values: Mapping[Node, Any], label: str = "broadcast"
    ) -> None:
        """Charge a broadcast whose inboxes the caller discards.

        Identical ledger record (and identical BandwidthExceeded on
        violating rounds) to a full ``broadcast`` of ``values`` — the inbox
        fill is the only thing skipped, which is exactly what the discarding
        call sites (ACD participation/degree announcements) never observe.
        """
        senders, _contents, slots, bits = self._collect_senders(values)
        message_count, total_bits, max_edge_bits = self._account_broadcast(
            senders, slots, bits, label
        )
        self.ledger.record_round(label, message_count, total_bits, max_edge_bits)
        return None

    # --------------------------------------------------------------- chunked
    def charge_chunked_sizes(self, label: str, sizes: "np.ndarray") -> None:
        """The ledger records of :meth:`exchange_chunked` for pre-sized edges.

        ``sizes`` holds per-edge payload bits (int64).  Used by the columnar
        buddy sweep, whose exchanged payloads are statically sized and whose
        inboxes the reference implementation ignores; the records — empty
        round, LOCAL single round, or the CONGEST chunk-round sequence —
        match the reference ``exchange_chunked`` byte for byte.
        """
        if sizes.size == 0:
            self.ledger.record_round(label, 0, 0, 0)
            return
        if self.mode == "local":
            self.ledger.record_round(
                label, int(sizes.size), int(sizes.sum()), int(sizes.max())
            )
            return
        self._charge_chunked_array(label, sizes)

    def _charge_chunked_rounds(
        self, label: str, sizes: Mapping[DirectedEdge, int]
    ) -> None:
        if len(sizes) < _VECTOR_MIN_SIZES:
            super()._charge_chunked_rounds(label, sizes)
            return
        try:
            array = np.fromiter(sizes.values(), dtype=np.int64, count=len(sizes))
        except OverflowError:
            # Payloads beyond int64 bits only arise in adversarial unit
            # tests; the scalar path handles arbitrary Python ints.
            super()._charge_chunked_rounds(label, sizes)
            return
        self._charge_chunked_array(label, array)

    def _charge_chunked_array(self, label: str, sizes: "np.ndarray") -> None:
        """Vectorized twin of ``Transport._charge_chunked_rounds``.

        The reference groups edges by chunk count into three dict histograms
        and then replays the rounds; ``np.bincount``/``np.add.at``/
        ``np.maximum.at`` build the same histograms as arrays.  All values
        re-enter Python as native ints before ``record_round`` so ledgers
        (and their JSON artifacts) are byte-identical.
        """
        budget = self.bandwidth_bits
        positive = sizes[sizes > 0]
        zero_count = int(sizes.size - positive.size)
        record = self.ledger.record_round
        if positive.size == 0:
            record(label, zero_count, 0, 0)
            return
        chunks = -(-positive // budget)  # ceil-divide, like the scalar path
        total_rounds = int(chunks.max())
        if total_rounds > _VECTOR_MAX_ROUNDS:
            super()._charge_chunked_rounds(
                label, dict(enumerate(sizes.tolist()))
            )
            return
        remainder = positive - (chunks - 1) * budget
        finish_count = np.bincount(chunks, minlength=total_rounds + 1).tolist()
        finish_bits = np.zeros(total_rounds + 1, dtype=np.int64)
        np.add.at(finish_bits, chunks, remainder)
        finish_bits = finish_bits.tolist()
        finish_max = np.zeros(total_rounds + 1, dtype=np.int64)
        np.maximum.at(finish_max, chunks, remainder)
        finish_max = finish_max.tolist()
        streaming = int(positive.size)
        for r in range(1, total_rounds + 1):
            finishing = finish_count[r]
            full = streaming - finishing
            count = streaming + (zero_count if r == 1 else 0)
            bits = budget * full + finish_bits[r]
            max_bits = budget if full > 0 else finish_max[r]
            record(label, count, bits, max_bits)
            streaming -= finishing
