"""Immutable graph topology with CSR-style adjacency.

:class:`Topology` is the structural half of the communication engine (see
DESIGN.md): it is built once from a ``networkx`` graph and never mutated, so
every view the transports and algorithms need — the node list, per-node
neighbor sets, degrees, the contiguous node index — is computed once and
cached.  The CSR arrays (``indptr``/``indices`` over the contiguous index)
give the vectorized columnar backend a dense representation to work from
without retraversing the ``networkx`` structure, and answer every
"how many of my neighbours are in this set" question in one reduction
(:meth:`Topology.neighbor_counts`).
"""

from __future__ import annotations

from array import array
from typing import Collection, Dict, Hashable, Sequence, Tuple, Union

import networkx as nx
import numpy as np

from repro.congest.errors import ProtocolError

Node = Hashable


class Topology:
    """Immutable adjacency structure extracted from an undirected graph.

    Parameters
    ----------
    graph:
        The communication graph.  Self-loops are rejected (CONGEST networks
        are simple graphs).  The graph object is kept only as a reference for
        callers that need ``networkx`` algorithms; all hot-path queries are
        answered from the cached structures.
    """

    __slots__ = (
        "graph",
        "_nodes",
        "_index",
        "_neighbor_sets",
        "_degrees",
        "indptr",
        "indices",
        "_number_of_edges",
        "_max_degree",
    )

    def __init__(self, graph: nx.Graph):
        if nx.number_of_selfloops(graph):
            raise ProtocolError("self-loops are not allowed in a CONGEST network")
        self.graph = graph
        self._nodes: Tuple[Node, ...] = tuple(graph.nodes())
        self._index: Dict[Node, int] = {v: i for i, v in enumerate(self._nodes)}
        neighbor_sets: Dict[Node, frozenset] = {}
        degrees: Dict[Node, int] = {}
        indptr = array("l", [0])
        indices = array("l")
        index = self._index
        for v in self._nodes:
            nbrs = frozenset(graph.neighbors(v))
            neighbor_sets[v] = nbrs
            degrees[v] = len(nbrs)
            indices.extend(sorted(index[u] for u in nbrs))
            indptr.append(len(indices))
        self._neighbor_sets = neighbor_sets
        self._degrees = degrees
        # The one conversion to int64 numpy: zero-copy where array("l") is
        # 8 bytes, a copy where it is 4.
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self._number_of_edges = len(indices) // 2
        self._max_degree = max(degrees.values(), default=0)

    # ------------------------------------------------------------------- views
    @property
    def nodes(self) -> Tuple[Node, ...]:
        """All nodes, in insertion order (cached; never rebuilt)."""
        return self._nodes

    @property
    def number_of_nodes(self) -> int:
        return len(self._nodes)

    @property
    def number_of_edges(self) -> int:
        return self._number_of_edges

    @property
    def neighbor_sets(self) -> Dict[Node, frozenset]:
        """The per-node neighbor sets (treat as read-only)."""
        return self._neighbor_sets

    def neighbors(self, v: Node) -> frozenset:
        try:
            return self._neighbor_sets[v]
        except KeyError:
            raise ProtocolError(f"node {v!r} is not in the network") from None

    def degree(self, v: Node) -> int:
        try:
            return self._degrees[v]
        except KeyError:
            raise ProtocolError(f"node {v!r} is not in the network") from None

    def max_degree(self) -> int:
        return self._max_degree

    def neighbor_counts(
        self, nodes: Sequence[Node], members: Union[Collection[Node], "np.ndarray"]
    ) -> "np.ndarray":
        """For each of ``nodes``, how many of its neighbours lie in ``members``.

        ``members`` is a collection of nodes or a boolean mask over the node
        index.  One CSR reduction: the neighbour rows of ``nodes`` are
        gathered, tested against the mask, and the hits counted per row.
        Returns an int64 array aligned with ``nodes``.
        """
        if not isinstance(members, np.ndarray):
            mask = np.zeros(len(self._nodes), dtype=bool)
            mask[self.index_array(members)] = True
            members = mask
        neighbors, row_of = self.gather_rows(self.index_array(nodes))
        return np.bincount(row_of[members[neighbors]], minlength=len(nodes))

    def gather_rows(self, rows: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
        """The CSR rows of node indices ``rows``, concatenated.

        Returns ``(neighbors, row_of)``: every neighbour index of every row
        in turn, and the position in ``rows`` of the row it came from.
        """
        indptr = self.indptr
        starts = indptr[rows]
        degrees = indptr[rows + 1] - starts
        ends = np.cumsum(degrees)
        total = int(ends[-1]) if len(ends) else 0
        edges = np.repeat(starts - (ends - degrees), degrees) + np.arange(total)
        return self.indices[edges], np.repeat(np.arange(len(rows)), degrees)

    # ----------------------------------------------------------- index helpers
    def index_array(self, nodes: Collection[Node]) -> "np.ndarray":
        """The node indices of ``nodes``, in order, as an int64 array."""
        return np.fromiter(map(self._index.__getitem__, nodes), dtype=np.int64,
                           count=len(nodes))

    @property
    def node_index(self) -> Dict[Node, int]:
        """The contiguous node->index map (treat as read-only).

        Exposed so :class:`~repro.congest.columnar.transport.ColumnarTransport`
        shares the one map built at construction instead of paying an O(n)
        rebuild per run.
        """
        return self._index

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"Topology(n={self.number_of_nodes}, m={self.number_of_edges}, "
            f"max_degree={self._max_degree})"
        )
