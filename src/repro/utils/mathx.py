"""Integer math helpers used throughout the reproduction.

The coloring algorithm of the paper is stated in terms of iterated logarithms
(``log* n``) and tetration (``2 ↑↑ i``, used by ``SlackColor``).  These
helpers keep those computations in one place and make them exact for the
small inputs used in tests.
"""

from __future__ import annotations

import math


def log_star(x: float) -> int:
    """Return the iterated base-2 logarithm ``log* x``.

    ``log* x`` is the number of times the logarithm must be applied before the
    result drops to at most 1.  It is at most 5 for every input that fits in
    the observable universe, which is exactly why the paper's ``O(log* n)``
    phases terminate so quickly.
    """
    if x <= 1:
        return 0
    count = 0
    value = x
    while value > 1:
        # math.log accepts arbitrarily large integers, so no float(x) cast.
        value = math.log(value, 2.0)
        count += 1
        if count > 128:  # pragma: no cover - defensive, unreachable for finite x
            break
    return count


def tetration(base: int, height: int, cap: int = 2**62) -> int:
    """Return ``base ↑↑ height`` (iterated exponentiation), capped at ``cap``.

    ``SlackColor`` (Alg. 15) tries ``x_i = 2 ↑↑ i`` colors in iteration ``i``.
    The cap prevents the intermediate values from exploding; the algorithm only
    ever needs values up to the node's slack, which is far below the cap.
    """
    if height <= 0:
        return 1
    value = 1
    for _ in range(height):
        if value >= 64:  # 2**64 already exceeds any realistic cap
            return cap
        value = base**value
        if value >= cap:
            return cap
    return value
