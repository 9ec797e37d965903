"""Palette (color list) generators for the list-coloring problems.

The (degree+1)-list-coloring problem (D1LC) hands every node ``v`` a list of
``d_v + 1`` colors from an arbitrary color space; (deg+1)-coloring (D1C) and
(Δ+1)-coloring are the special cases where the lists are ``{0..d_v}`` and
``{0..Δ}``.  These generators produce the different flavours, including lists
drawn from a huge color space (``|C| ≈ 2^{60}``), which exercises the
large-color machinery of Appendix D.3.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Optional, Set

import networkx as nx

Node = Hashable
Palette = Set[int]


def numeric_degree_lists(graph: nx.Graph, extra: int = 0) -> Dict[Node, Palette]:
    """D1C palettes: node ``v`` gets ``{0, ..., d_v + extra}``."""
    if extra < 0:
        raise ValueError("extra must be non-negative")
    return {v: set(range(graph.degree(v) + 1 + extra)) for v in graph.nodes()}


def degree_plus_one_lists(
    graph: nx.Graph,
    color_space_size: Optional[int] = None,
    extra: int = 0,
    seed: int = 0,
) -> Dict[Node, Palette]:
    """D1LC palettes: ``d_v + 1 + extra`` colors sampled from a shared space.

    ``color_space_size`` defaults to ``4(Δ + 1)``, which makes neighbouring
    lists overlap heavily (the hard case for list coloring) while still giving
    the adversary room to hand different nodes different lists.
    """
    rng = random.Random(seed)
    delta = max((d for _, d in graph.degree()), default=0)
    if color_space_size is None:
        color_space_size = 4 * (delta + 1)
    if color_space_size < delta + 1 + extra:
        raise ValueError("color space must contain at least Δ + 1 + extra colors")
    lists: Dict[Node, Palette] = {}
    for v in graph.nodes():
        need = graph.degree(v) + 1 + extra
        lists[v] = set(rng.sample(range(color_space_size), need))
    return lists


def huge_color_space_lists(
    graph: nx.Graph,
    color_space_bits: int = 60,
    extra: int = 0,
    seed: int = 0,
) -> Dict[Node, Palette]:
    """D1LC palettes drawn from a gigantic color space (Appendix D.3 regime).

    Colors are random integers below ``2^color_space_bits``; sending one
    verbatim would take ``color_space_bits`` bits, far above the CONGEST
    budget for large ``color_space_bits``, so the coloring pipeline must go
    through the universal-hashing machinery.
    """
    if color_space_bits < 16:
        raise ValueError("color_space_bits should be at least 16 to be interesting")
    rng = random.Random(seed)
    space = 1 << color_space_bits
    lists: Dict[Node, Palette] = {}
    for v in graph.nodes():
        need = graph.degree(v) + 1 + extra
        palette: Set[int] = set()
        while len(palette) < need:
            palette.add(rng.randrange(space))
        lists[v] = palette
    return lists


def shared_pool_lists(
    graph: nx.Graph,
    pool_size: Optional[int] = None,
    extra: int = 0,
    seed: int = 0,
) -> Dict[Node, Palette]:
    """Adversarial palettes maximising conflicts: all lists drawn from a tiny pool.

    With ``pool_size`` barely above ``Δ``, neighbouring lists are nearly
    identical, which maximises color contention — useful for stress tests.
    """
    rng = random.Random(seed)
    delta = max((d for _, d in graph.degree()), default=0)
    if pool_size is None:
        pool_size = delta + 2
    pool_size = max(pool_size, delta + 1 + extra)
    lists: Dict[Node, Palette] = {}
    for v in graph.nodes():
        need = graph.degree(v) + 1 + extra
        lists[v] = set(rng.sample(range(pool_size), need))
    return lists
