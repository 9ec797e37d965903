"""Shared fixtures for the test suite.

Graphs are kept deliberately small so the whole suite runs in a couple of
minutes; the ``conformance`` suite (``repro suite run conformance``) is where
the larger sweeps live.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.congest import Network
from repro.core import ColoringParameters
from repro.graphs import (
    degree_plus_one_lists,
    gnp_graph,
    planted_almost_cliques,
    power_law_graph,
)


@pytest.fixture
def small_params() -> ColoringParameters:
    return ColoringParameters.small(seed=7)


@pytest.fixture
def triangle_graph() -> nx.Graph:
    return nx.complete_graph(3)


@pytest.fixture
def path_graph() -> nx.Graph:
    return nx.path_graph(6)


@pytest.fixture
def gnp_small() -> nx.Graph:
    return gnp_graph(40, 0.2, seed=3)


@pytest.fixture
def gnp_medium() -> nx.Graph:
    return gnp_graph(80, 0.12, seed=5)


@pytest.fixture
def powerlaw_small() -> nx.Graph:
    return power_law_graph(60, 3, seed=11)


@pytest.fixture
def planted():
    return planted_almost_cliques(
        num_cliques=3, clique_size=12, num_sparse=10, sparse_degree=4, seed=13
    )


@pytest.fixture
def planted_graph(planted) -> nx.Graph:
    return planted.graph


@pytest.fixture
def d1lc_lists(planted_graph):
    return degree_plus_one_lists(planted_graph, seed=17)


@pytest.fixture
def congest_network(gnp_small) -> Network:
    return Network(gnp_small)


@pytest.fixture
def local_network(gnp_small) -> Network:
    return Network(gnp_small, mode="local")
