"""uint64-array twins of the scalar splitmix64 hashing kernels.

Byte-identity contract: every function here reproduces its scalar counterpart
in :mod:`repro.hashing.keys` / :mod:`repro.hashing.representative` bit for
bit.  The scalar kernels already operate on 64-bit masked integers, so the
vectorization is mechanical — numpy's wrapping uint64 arithmetic *is* the
``& MASK64`` discipline of the scalar code — but any drift here silently
changes colorings, so ``tests/test_columnar.py`` pins each function against
the scalar implementation on adversarial inputs (0, MASK64, bit-boundary
values, random draws).

All functions accept numpy uint64 arrays (scalars broadcast) and run inside
``np.errstate(over="ignore")``: wraparound is the intended semantics.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.hashing.keys import _MASK64 as MASK64
from repro.hashing.keys import MIX64_INIT, element_key

# The splitmix64 constants, named as in repro.hashing.keys.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# combine_part_keys appends this salt so tuple keys never collide with the
# bare chain of their parts (see repro.hashing.keys.combine_part_keys).
_TUPLE_SALT = 0x7157

_TWO64 = 1 << 64


def _u64(value: int) -> "np.uint64":
    return np.uint64(value & MASK64)


def mix64_step_vec(acc, value):
    """Array twin of :func:`repro.hashing.keys.mix64_step`.

    ``acc`` and ``value`` broadcast against each other; the result carries
    the broadcast shape.  Matches the scalar kernel bit for bit: absorb via
    xor, advance by the golden-ratio increment, then the splitmix64
    finalizer.
    """
    with np.errstate(over="ignore"):
        # In place on the one fresh array: three shift temporaries, not ten.
        z = np.bitwise_xor(np.asarray(acc, dtype=np.uint64), np.asarray(value, dtype=np.uint64))
        z += _u64(_GOLDEN)
        z ^= z >> np.uint64(30)
        z *= _u64(_MIX_A)
        z ^= z >> np.uint64(27)
        z *= _u64(_MIX_B)
        z ^= z >> np.uint64(31)
        return z


def mix64_vec(*values):
    """Array twin of :func:`repro.hashing.keys.mix64`: chain steps from MIX64_INIT."""
    acc = _u64(MIX64_INIT)
    for value in values:
        acc = mix64_step_vec(acc, value)
    return acc


def scale_keys_vec(base_keys, j_values):
    """Vectorized ``combine_part_keys((key, j))`` for aligned arrays.

    ``element_key((part, j))`` for an already-keyed part and a small
    non-negative int ``j`` is ``mix64(part_key, j, 0x7157)`` — the scaled-key
    construction of the similarity sweep (``similarity._scaled_keys``).
    """
    return mix64_vec(base_keys, j_values, _u64(_TUPLE_SALT))


def member_prefixes_vec(family_seeds, indices):
    """Vectorized ``RepresentativeHashFunction._prefix`` for aligned arrays."""
    return mix64_step_vec(mix64_step_vec(_u64(MIX64_INIT), family_seeds), indices)


def hash_values_vec(prefixes, keys, lams):
    """Vectorized hash draw of ``RepresentativeHashFunction.low_unique_values``.

    Returns ``1 + finalize(prefix ^ key) % lam`` per element — the inlined
    splitmix64 body of the scalar hot loop, bit for bit.
    """
    values = mix64_step_vec(prefixes, keys)
    values %= np.asarray(lams, dtype=np.uint64)
    values += np.uint64(1)
    return values


def element_keys_array(elements: Iterable[object]) -> "np.ndarray":
    """``element_key`` over a collection, as a uint64 array.

    Fast path: when every element is a plain non-negative int below 2**64,
    ``element_key`` is the identity and the array is built directly.  Any
    other element type (bool, negative int, tuple, str, ...) falls back to
    the scalar ``element_key`` per element — correctness over speed, since a
    silent numeric cast (e.g. float -> uint64) would diverge from the scalar
    keying of the reference backends.
    """
    items: Sequence[object] = elements if isinstance(elements, (list, tuple)) else list(elements)
    # `type(x) is int` deliberately excludes bool: element_key(True) == 1 is
    # only reached through the scalar fallback's isinstance(bool) branch.
    if all(type(x) is int and 0 <= x < _TWO64 for x in items):
        return np.fromiter(items, dtype=np.uint64, count=len(items))
    return np.fromiter(
        (element_key(x) for x in items), dtype=np.uint64, count=len(items)
    )
