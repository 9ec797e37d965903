"""Immutable graph topology with CSR-style adjacency.

:class:`Topology` is the structural half of the communication engine (see
DESIGN.md): it is built once from a ``networkx`` graph and never mutated.
Construction builds the node tuple, the contiguous node index, the CSR
arrays (``indptr``/``indices`` over that index) and the degree dict, with
numpy and without one Python object per node.  The CSR gives the
vectorized columnar backend a dense representation to work from without
retraversing the ``networkx`` structure, and answers every "how many of my
neighbours are in this set" question in one reduction
(:meth:`Topology.neighbor_counts`).  A node's neighbour set is built from
the graph's adjacency on its first :meth:`Topology.neighbors` call and
cached.
"""

from __future__ import annotations

from itertools import chain
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
        are simple graphs).  The graph is kept: neighbour sets are built
        from its adjacency on demand, and callers that need ``networkx``
        algorithms read it; every other query is answered from the cached
        structures.
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
        self.graph = graph
        self._nodes: Tuple[Node, ...] = tuple(graph)
        self._index: Dict[Node, int] = {v: i for i, v in enumerate(self._nodes)}
        # The graph's own adjacency dicts, in node order, not copied.
        rows = [nbrs for _, nbrs in graph.adjacency()]
        n = len(rows)
        degrees = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        row = np.repeat(np.arange(n, dtype=np.int64), degrees)
        indices = np.fromiter(map(self._index.__getitem__, chain.from_iterable(rows)),
                              dtype=np.int64, count=int(indptr[-1]))
        if (indices == row).any():
            raise ProtocolError("self-loops are not allowed in a CONGEST network")
        # Every row sorted at once: one sort of row·n + column, then the
        # row offset comes off again.
        row *= n
        indices += row
        indices.sort()
        indices -= row
        self.indptr = indptr
        self.indices = indices
        self._neighbor_sets: Dict[Node, frozenset] = {}
        self._degrees: Dict[Node, int] = dict(zip(self._nodes, degrees.tolist()))
        self._number_of_edges = len(indices) // 2
        self._max_degree = int(degrees.max()) if n else 0

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

    def neighbors(self, v: Node) -> frozenset:
        """``v``'s neighbour set, built on first request and then cached.

        Built from the graph's adjacency, not from the CSR row: a
        frozenset's iteration order depends on insertion order where hashes
        collide, and the readers that iterate it (the ``dict`` oracle's
        per-edge fan-out, fault plans, the uniform ACD, MultiTrial, the
        unevenness band) keep the order they always had.
        """
        nbrs = self._neighbor_sets.get(v)
        if nbrs is None:
            if v not in self._index:
                raise ProtocolError(f"node {v!r} is not in the network")
            nbrs = self._neighbor_sets[v] = frozenset(self.graph.neighbors(v))
        return nbrs

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
