"""Deterministic bit-level corruption of message payloads.

The corruption model is "every bit of the payload flips independently with
probability ``rate``", matching the noise the paper's ``[3b, b, b/2]`` code
(Algorithm 6, :mod:`repro.hashing.ecc`) is built to tolerate.  Payload types
map to bits the same way :func:`repro.congest.bandwidth.payload_bits`
charges them:

* booleans flip;
* integers flip within their binary length (the corrupted value never needs
  more bits than the original, so corruption cannot create a bandwidth
  violation);
* strings flip within each character's low byte;
* containers (tuples/lists/sets/dicts) corrupt their members recursively;
* a :class:`~repro.congest.message.Message` corrupts its content but keeps
  its declared bit charge and label;
* ``None``/floats (diagnostics-only payloads) and unknown ``Message``
  contents pass through untouched.

All decisions come from a counter-based splitmix64 stream seeded per
(edge, round), never from a shared ``random.Random`` — so the outcome is
independent of dict iteration order, backend, and process.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.congest.message import Message
from repro.hashing.keys import element_key, mix64

#: Uniform-in-[0,1) resolution: the top 53 bits of a mixed 64-bit value.
_F53 = float(1 << 53)

_ITEM_SALT = 0x17E4
_CONTENT_SALT = 0x4D5E


def to_unit(mixed: int) -> float:
    """Map a mixed 64-bit value to [0, 1) — the one bits-to-uniform rule.

    Shared by every fault decision (drop draws in the transport, bit flips
    here), so the whole layer keeps a single RNG discipline.
    """
    return (mixed >> 11) / _F53


def _uniform(seed: int, index: int) -> float:
    """The ``index``-th uniform draw of the stream rooted at ``seed``."""
    return to_unit(mix64(seed, index))


def _corrupt_int(value: int, rate: float, seed: int) -> Tuple[int, int]:
    """Flip bits of ``value`` within its binary length (sign untouched)."""
    magnitude = abs(value)
    width = max(1, magnitude.bit_length())
    mask = 0
    flips = 0
    for position in range(width):
        if _uniform(seed, position) < rate:
            mask |= 1 << position
            flips += 1
    if not flips:
        return value, 0
    corrupted = magnitude ^ mask
    return (-corrupted if value < 0 else corrupted), flips


def _corrupt_str(value: str, rate: float, seed: int) -> Tuple[str, int]:
    """Flip bits within each character's low byte (8 bits/char, as charged)."""
    chars = []
    flips = 0
    for index, char in enumerate(value):
        mask = 0
        char_seed = mix64(seed, index, _ITEM_SALT)
        for position in range(8):
            if _uniform(char_seed, position) < rate:
                mask |= 1 << position
        if mask:
            flips += bin(mask).count("1")
            chars.append(chr(ord(char) ^ mask))
        else:
            chars.append(char)
    return "".join(chars), flips


def corrupt_payload(payload: Any, rate: float, seed: int) -> Tuple[Any, int]:
    """Corrupt ``payload`` at per-bit ``rate``; returns ``(payload', flips)``.

    The original object is never mutated — hot paths share payload objects
    across receivers, so corruption always builds a fresh value (or returns
    the original untouched when no bit flipped).
    """
    if isinstance(payload, Message):
        content, flips = corrupt_payload(payload.content, rate,
                                         mix64(seed, _CONTENT_SALT))
        if not flips:
            return payload, 0
        return Message(content=content, bits=payload.bits, label=payload.label), flips
    if isinstance(payload, bool):
        if _uniform(seed, 0) < rate:
            return (not payload), 1
        return payload, 0
    if isinstance(payload, int):
        return _corrupt_int(payload, rate, seed)
    if isinstance(payload, str):
        return _corrupt_str(payload, rate, seed)
    if isinstance(payload, (tuple, list)):
        items = []
        flips = 0
        for index, item in enumerate(payload):
            corrupted, item_flips = corrupt_payload(
                item, rate, mix64(seed, index, _ITEM_SALT)
            )
            items.append(corrupted)
            flips += item_flips
        if not flips:
            return payload, 0
        return type(payload)(items), flips
    if isinstance(payload, (set, frozenset)):
        members = []
        flips = 0
        # Enumerate in a canonical order so member sub-seeds do not depend
        # on set iteration order (which varies with insertion history).
        for index, item in enumerate(sorted(payload, key=repr)):
            corrupted, item_flips = corrupt_payload(
                item, rate, mix64(seed, index, _ITEM_SALT)
            )
            members.append(corrupted)
            flips += item_flips
        if not flips:
            return payload, 0
        return type(payload)(members), flips
    if isinstance(payload, dict):
        items = {}
        flips = 0
        # Sub-seed by the *key*, not the enumeration index: equal dicts with
        # different insertion histories must corrupt identically.
        for key, value in payload.items():
            corrupted, item_flips = corrupt_payload(
                value, rate, mix64(seed, element_key(key), _ITEM_SALT)
            )
            items[key] = corrupted
            flips += item_flips
        if not flips:
            return payload, 0
        return items, flips
    # None, floats, and exotic Message contents: nothing sensible to flip.
    return payload, 0
