"""Set operators of Section 3.1 of the paper.

For a hash function ``h : U -> [lambda]``, sets ``A, B`` and a threshold
``sigma``, the paper defines (Notations, Section 3.1):

* ``A|_h^{<=sigma}``     — elements of ``A`` hashing to a value at most ``sigma``,
* ``A wedge_h^{<=sigma} B`` — elements of ``A|_h^{<=sigma}`` that collide with
  some *other* element of ``B``,
* ``A neg_h^{<=sigma} B``   — elements of ``A|_h^{<=sigma}`` whose hash is not
  shared by any other element of ``B``.

These are implemented here as plain functions over Python sets and an
arbitrary hash callable, so they are usable with representative families,
pairwise-independent families, or any ad-hoc function in tests.  The
elementary containment facts of Proposition 1 are exercised by unit and
property-based tests.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Hashable, Iterable, Set

HashFn = Callable[[Hashable], int]


def low_part(h: HashFn, elements: Iterable[Hashable], sigma: int) -> Set[Hashable]:
    """Return ``A|_h^{<=sigma}``: elements hashing to a value in ``[sigma]``.

    Hash values are 1-based, following the paper's ``[lambda] = {1..lambda}``.
    """
    return {x for x in elements if h(x) <= sigma}


def _hash_buckets(h: HashFn, elements: Iterable[Hashable], sigma: int) -> Dict[int, list]:
    buckets: Dict[int, list] = defaultdict(list)
    for x in elements:
        value = h(x)
        if value <= sigma:
            buckets[value].append(x)
    return buckets


def colliding_part(
    h: HashFn,
    first: Iterable[Hashable],
    second: Iterable[Hashable],
    sigma: int,
) -> Set[Hashable]:
    """Return ``A wedge_h^{<=sigma} B``.

    An element ``x`` of ``A`` belongs to the result iff ``h(x) <= sigma`` and
    some element of ``B`` *other than x itself* has the same hash value.
    """
    second_buckets = _hash_buckets(h, second, sigma)
    result: Set[Hashable] = set()
    for x in first:
        value = h(x)
        if value > sigma:
            continue
        bucket = second_buckets.get(value, ())
        for other in bucket:
            if other != x:
                result.add(x)
                break
    return result


def unique_part(
    h: HashFn,
    first: Iterable[Hashable],
    second: Iterable[Hashable],
    sigma: int,
) -> Set[Hashable]:
    """Return ``A neg_h^{<=sigma} B`` = ``A|_h^{<=sigma}`` minus the colliding part."""
    first = set(first)
    return low_part(h, first, sigma) - colliding_part(h, first, second, sigma)

