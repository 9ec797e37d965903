"""The per-node ``Topology`` constructor and ``validate_coloring`` before
they moved to numpy (tests only)."""

from array import array
from types import SimpleNamespace

import networkx as nx
import numpy as np

from repro.congest import ProtocolError


def reference_topology(graph):
    """What ``Topology.__init__`` built: a neighbour frozenset, a degree and
    a ``sorted`` CSR row per node."""
    if nx.number_of_selfloops(graph):
        raise ProtocolError("self-loops are not allowed in a CONGEST network")
    nodes = tuple(graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    neighbor_sets, degrees = {}, {}
    indptr = array("l", [0])
    indices = array("l")
    for v in nodes:
        nbrs = frozenset(graph.neighbors(v))
        neighbor_sets[v] = nbrs
        degrees[v] = len(nbrs)
        indices.extend(sorted(index[u] for u in nbrs))
        indptr.append(len(indices))
    return SimpleNamespace(
        nodes=nodes,
        node_index=index,
        neighbor_sets=neighbor_sets,
        degrees=degrees,
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int64),
        number_of_edges=len(indices) // 2,
        max_degree=max(degrees.values(), default=0),
    )


def reference_validation(instance, coloring):
    """``(uncolored, conflicts, palette_violations)`` by walking the graph's
    nodes and edges."""
    uncolored, palette_violations = [], []
    for v in instance.graph.nodes():
        color = coloring.get(v)
        if color is None:
            uncolored.append(v)
        elif color not in instance.palettes[v]:
            palette_violations.append(v)
    conflicts = []
    for u, v in instance.graph.edges():
        cu, cv = coloring.get(u), coloring.get(v)
        if cu is not None and cu == cv:
            conflicts.append((u, v))
    return uncolored, conflicts, palette_violations
