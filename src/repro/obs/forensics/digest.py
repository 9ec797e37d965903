"""Canonical encodings and multiset digests for determinism forensics.

Everything the forensics layer hashes flows through this module, and two
properties carry the whole subsystem:

* **Canonical bytes.** :func:`canonical_bytes` is a type-tagged,
  length-prefixed encoding with sorted map/set bodies, so the bytes of a
  payload never depend on dict/set iteration order, ``PYTHONHASHSEED``, or
  which transport backend delivered it.
* **Commutative multisets.** Per-round digests are *multiset* sums
  (64-bit wrapping sum of per-entry hashes, plus a count), not order-folded
  chains.  The dict and columnar backends deliver the same messages in
  different iteration orders — a commutative accumulator makes the
  per-round digest independent of delivery order.

The only order-sensitive fold is the *chain* (:func:`fold_chain`), which
links the per-round summaries into one tamper-evident running digest; the
round sequence is deterministic by the engine's own contract, so chaining
over it is safe.

Entry hashes reuse the splitmix64 pipeline from :mod:`repro.hashing.keys`.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple

from repro.hashing.keys import _MASK64, MIX64_INIT, element_key, mix64, mix64_step

Node = Hashable

# Domain-separation salts: one per kind of digested entry, so an exchange
# entry can never collide with a sent-value entry built from the same
# integers.
_EDGE_SALT = 0xD1E5  # delivered (sender, receiver, payload) entries
_VALUE_SALT = 0xD15C  # broadcast_discard per-sender sent values
_INT_SALT = 0x1477  # small-int payload fast path
_CHAIN_SALT = 0xC4A1  # chain initialisation

#: Every chain starts here; byte-identical streams share it by construction.
CHAIN_INIT = mix64(_CHAIN_SALT)


def hex16(value: int) -> str:
    """Fixed-width lowercase hex of a 64-bit digest value."""
    return format(value & _MASK64, "016x")


# --------------------------------------------------------------- canonical
def canonical_bytes(obj: Any) -> bytes:
    """Type-tagged canonical encoding of a payload-like Python value.

    Deterministic across processes and hash seeds: containers are
    length-delimited, dict entries are sorted by their key encoding, sets by
    their element encoding.  Unknown types fall back to ``repr`` (tagged, so
    a string can never forge the encoding of an exotic object).
    """
    out = bytearray()
    _encode(obj, out)
    return bytes(out)


def _encode(obj: Any, out: bytearray) -> None:
    kind = type(obj)
    if obj is None:
        out += b"N;"
    elif kind is bool:
        out += b"T;" if obj else b"F;"
    elif kind is int:
        out += b"i%d;" % obj
    elif kind is float:
        out += b"f%s;" % repr(obj).encode("ascii")
    elif kind is str:
        data = obj.encode("utf-8")
        out += b"s%d:" % len(data)
        out += data
    elif kind is bytes or kind is bytearray:
        out += b"b%d:" % len(obj)
        out += obj
    elif kind is tuple or kind is list:
        out += b"(" if kind is tuple else b"["
        for item in obj:
            _encode(item, out)
        out += b")" if kind is tuple else b"]"
    elif isinstance(obj, dict):
        # Sorting the concatenated key+value encodings sorts by key
        # encoding: key encodings are prefix-free per entry, and Python
        # equality unifies keys (1 == 1.0) whose encodings differ, so keys
        # of one dict always have distinct encodings.
        parts = sorted(
            canonical_bytes(key) + canonical_bytes(value)
            for key, value in obj.items()
        )
        out += b"{"
        for part in parts:
            out += part
        out += b"}"
    elif isinstance(obj, (set, frozenset)):
        parts = sorted(canonical_bytes(item) for item in obj)
        out += b"<"
        for part in parts:
            out += part
        out += b">"
    else:
        data = repr(obj).encode("utf-8")
        out += b"r%d:" % len(data)
        out += data


def hash_bytes(data: bytes) -> int:
    """64-bit blake2b of an encoded value."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


def payload_hash(payload: Any) -> int:
    """64-bit hash of one message payload.

    Plain uint64-range ints (the dominant payload shape: colors, counters,
    packed words) take a pure splitmix64 path; everything else hashes its
    canonical bytes.
    """
    if type(payload) is int and 0 <= payload <= _MASK64:
        return mix64(_INT_SALT, payload)
    return hash_bytes(canonical_bytes(payload))


# ------------------------------------------------------------ entry hashes
# Precomputed salt steps: mix64(SALT, ...) == chained steps from MIX64_INIT,
# so folding from the precomputed accumulator saves one step per entry.
_EDGE_ACC = mix64_step(MIX64_INIT, _EDGE_SALT)
_VALUE_ACC = mix64_step(MIX64_INIT, _VALUE_SALT)


def delivery_entry_hashes(
    senders: Sequence[Node],
    receivers: Sequence[Node],
    payloads: Sequence[Any],
) -> List[int]:
    """Multiset entry hashes for delivered per-edge messages.

    Entry = ``mix64(_EDGE_SALT, key(sender), key(receiver), payload_hash)``.
    Broadcast deliveries fold through the same function with the same
    (sender, receiver) orientation, so an exchange and the broadcast that
    delivers identical bytes produce identical entries.
    """
    # Per-call identity memo: broadcast fan-out repeats one payload object
    # per receiver, and identical objects trivially hash identically.  The
    # payloads sequence keeps every object alive, so ids are stable here.
    memo: Dict[int, int] = {}
    memo_get = memo.get
    out: List[int] = []
    append = out.append
    for sender, receiver, payload in zip(senders, receivers, payloads):
        entry = memo_get(id(payload))
        if entry is None:
            entry = memo[id(payload)] = payload_hash(payload)
        append(mix64_step(
            mix64_step(mix64_step(_EDGE_ACC, element_key(sender)),
                       element_key(receiver)),
            entry,
        ))
    return out


def value_entry_hash(sender: Node, payload: Any) -> int:
    """Multiset entry hash for one ``broadcast_discard`` sent value."""
    return mix64_step(mix64_step(_VALUE_ACC, element_key(sender)),
                      payload_hash(payload))


# ------------------------------------------------------------ accumulators
class MultisetDigest:
    """Commutative digest: wrapping 64-bit sum of entry hashes + count.

    Order-independent: any delivery order of the same entries yields the
    same ``(value, count)``.
    """

    __slots__ = ("value", "count")

    def __init__(self) -> None:
        self.value = 0
        self.count = 0

    def add(self, entry_hash: int) -> None:
        self.value = (self.value + entry_hash) & _MASK64
        self.count += 1

    def add_many(self, entry_hashes: Iterable[int]) -> None:
        total = self.value
        count = self.count
        for entry_hash in entry_hashes:
            total += entry_hash
            count += 1
        self.value = total & _MASK64
        self.count = count

    def reset(self) -> None:
        self.value = 0
        self.count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultisetDigest(value=0x{hex16(self.value)}, count={self.count})"


def fold_chain(chain: int, *values: int) -> int:
    """Fold round-summary integers into the running chain digest."""
    acc = chain
    for value in values:
        acc = mix64_step(acc, value)
    return acc


def flatten_exchange(
    delivered: Mapping[Tuple[Node, Node], Any]
) -> Tuple[List[Node], List[Node], List[Any]]:
    """Flatten an exchange result mapping to aligned columns."""
    senders: List[Node] = []
    receivers: List[Node] = []
    payloads: List[Any] = []
    for (sender, receiver), payload in delivered.items():
        senders.append(sender)
        receivers.append(receiver)
        payloads.append(payload)
    return senders, receivers, payloads


def label_key(label: str) -> int:
    """Stable 64-bit key of a round label for the chain fold."""
    return element_key(label)
