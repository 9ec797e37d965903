"""Canonical bit-cost model for message payloads.

The CONGEST model charges messages by their length in bits.  Rather than force
every algorithm to hand-compute sizes, :func:`payload_bits` assigns a cost to
the payload types used throughout the reproduction:

* ``None`` / booleans — 1 bit,
* integers — their binary length,
* floats — 64 bits (used only for diagnostics, never in the core algorithms),
* strings — 8 bits per character (IDs and debug labels),
* lists/tuples/sets/frozensets — the sum of their members plus a small length
  header,
* :class:`~repro.congest.message.Message` — whatever the sender declared.

Algorithms that know a tighter encoding (e.g. a ``σ``-bit indicator bitstring,
or an index into a hash family of size ``F``) wrap their payload in a
:class:`~repro.congest.message.Message` with an explicit bit count; the
explicit count is what the simulator charges, and it is the number the paper's
analysis talks about.
"""

from __future__ import annotations

from typing import Iterable

from repro.congest.message import Message

_LENGTH_HEADER_BITS = 8


def payload_bits(payload: object) -> int:
    """Return the number of bits charged for ``payload``."""
    if isinstance(payload, Message):
        return payload.bits
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, abs(payload).bit_length())
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return max(1, 8 * len(payload))
    if isinstance(payload, (list, tuple, set, frozenset)):
        return _LENGTH_HEADER_BITS + sum(payload_bits(item) for item in payload)
    if isinstance(payload, dict):
        return _LENGTH_HEADER_BITS + sum(
            payload_bits(k) + payload_bits(v) for k, v in payload.items()
        )
    raise TypeError(
        f"cannot charge bandwidth for payload of type {type(payload).__name__}; "
        "wrap it in Message(content, bits=...)"
    )


def bitstring_message(bits: Iterable[int], label: str = "bitstring") -> Message:
    """Package an explicit 0/1 bitstring, charged one bit per position.

    Indicator strings are the bulkiest payloads the primitives build (σ bits
    per edge per round), so coercion and validation run at C speed: ``map``
    does the per-entry ``int()`` and a single set comparison checks the whole
    string is 0/1.
    """
    values = tuple(map(int, bits))
    if not set(values) <= {0, 1}:
        raise ValueError("bitstring entries must be 0 or 1")
    return Message(content=values, bits=max(1, len(values)), label=label)


def index_message(index: int, family_size: int, label: str = "index") -> Message:
    """Package an index into a family of ``family_size`` elements.

    This is how hash-function indices are sent: the cost is ``log2 F`` bits,
    independent of how complicated the indexed object is.
    """
    if family_size <= 0:
        raise ValueError("family_size must be positive")
    if not 0 <= index < family_size:
        raise ValueError(f"index {index} out of range for family of size {family_size}")
    width = max(1, (family_size - 1).bit_length())
    return Message(content=index, bits=width, label=label)


def integer_message(value: int, universe_size: int, label: str = "int") -> Message:
    """Package an integer known to lie in ``[0, universe_size)``."""
    if universe_size <= 0:
        raise ValueError("universe_size must be positive")
    if not 0 <= value < universe_size:
        raise ValueError(f"value {value} out of range for universe of size {universe_size}")
    width = max(1, (universe_size - 1).bit_length())
    return Message(content=int(value), bits=width, label=label)
