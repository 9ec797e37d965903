"""Problem instances: D1LC, D1C and (Δ+1)-coloring, plus the color space model.

The (degree+1)-list-coloring problem (D1LC) hands every node ``v`` a palette
``Ψ(v)`` of at least ``d_v + 1`` colors from a common color space ``C``; a
valid solution assigns every node a color from its own palette such that no
edge is monochromatic.  D1C and (Δ+1)-coloring are the special cases with
numeric palettes ``{0..d_v}`` and ``{0..Δ}``.

The :class:`ColorSpace` records how big ``C`` is, because that is what decides
whether a color can be sent verbatim in one CONGEST message or must go through
the universal-hashing machinery of Appendix D.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Optional

import networkx as nx

Node = Hashable
Color = Hashable


@dataclass(frozen=True)
class ColorSpace:
    """Description of the color space ``C``.

    ``bits`` is ``ceil(log2 |C|)`` — the cost of writing one color verbatim.
    For huge spaces (``|C| = exp(n^Θ(1))``) only ``bits`` matters; the space is
    never materialised.
    """

    bits: int
    size: Optional[int] = None

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("a color space needs at least 1 bit")
        if self.size is not None and self.size < 2:
            raise ValueError("a color space needs at least 2 colors")

    @classmethod
    def from_colors(cls, colors: Iterable[Color]) -> "ColorSpace":
        colors = set(colors)
        size = max(2, len(colors))
        numeric = all(isinstance(c, int) for c in colors)
        if numeric and colors:
            span = max(max(colors) + 1, size)
            return cls(bits=max(1, (span - 1).bit_length()), size=span)
        return cls(bits=max(1, (size - 1).bit_length()), size=size)

    @classmethod
    def numeric(cls, size: int) -> "ColorSpace":
        return cls(bits=max(1, (max(2, size) - 1).bit_length()), size=max(2, size))

    def fits_in(self, bandwidth_bits: int) -> bool:
        """Can a single color be sent verbatim within one message budget?"""
        return self.bits <= bandwidth_bits


@dataclass
class ColoringInstance:
    """A list-coloring instance: graph + per-node palettes + color space."""

    graph: nx.Graph
    palettes: Dict[Node, FrozenSet[Color]]
    color_space: ColorSpace
    name: str = "d1lc"
    #: Lazy cache of the graph's max degree.  The graph is immutable for the
    #: lifetime of an instance (the same invariant Topology relies on), and
    #: ``max_degree`` sits on per-round hot paths (MultiTrial recomputed a
    #: full networkx degree sweep per call — 80% of a large-n run).
    _max_degree: Optional[int] = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        missing = [v for v in self.graph.nodes() if v not in self.palettes]
        if missing:
            raise ValueError(f"palettes missing for nodes: {missing[:5]}")

    # ------------------------------------------------------------- constructors
    @classmethod
    def d1lc(
        cls,
        graph: nx.Graph,
        lists: Mapping[Node, Iterable[Color]],
        color_space: Optional[ColorSpace] = None,
        name: str = "d1lc",
    ) -> "ColoringInstance":
        """A general list-coloring instance; lists must have ``>= d_v + 1`` colors."""
        palettes: Dict[Node, FrozenSet[Color]] = {}
        for v, degree in graph.degree():
            palette = frozenset(lists[v])
            if len(palette) <= degree:
                raise ValueError(
                    f"node {v!r} has degree {degree} but only "
                    f"{len(palette)} colors; D1LC requires at least {degree + 1}"
                )
            palettes[v] = palette
        if color_space is None:
            all_colors = set().union(*palettes.values()) if palettes else {0, 1}
            color_space = ColorSpace.from_colors(all_colors)
        return cls(graph=graph, palettes=palettes, color_space=color_space, name=name)

    @classmethod
    def d1c(cls, graph: nx.Graph) -> "ColoringInstance":
        """(deg+1)-coloring: node ``v`` may use colors ``{0, ..., d_v}``.

        Nodes of equal degree share one palette object.
        """
        degrees = dict(graph.degree())
        shared = {d: frozenset(range(d + 1)) for d in set(degrees.values())}
        instance = cls(
            graph=graph,
            palettes={v: shared[d] for v, d in degrees.items()},
            color_space=ColorSpace.numeric(max(shared, default=1) + 1),
            name="d1c",
        )
        instance._max_degree = max(shared, default=0)
        return instance

    @classmethod
    def delta_plus_one(cls, graph: nx.Graph) -> "ColoringInstance":
        """(Δ+1)-coloring: every node may use colors ``{0, ..., Δ}``."""
        delta = max((d for _, d in graph.degree()), default=1)
        palette = frozenset(range(delta + 1))
        palettes = {v: palette for v in graph.nodes()}
        return cls(
            graph=graph,
            palettes=palettes,
            color_space=ColorSpace.numeric(delta + 1),
            name="delta+1",
        )

    # ----------------------------------------------------------------- accessors
    @property
    def nodes(self):
        return list(self.graph.nodes())

    def max_degree(self) -> int:
        delta = self._max_degree
        if delta is None:
            delta = max((d for _, d in self.graph.degree()), default=0)
            self._max_degree = delta
        return delta
