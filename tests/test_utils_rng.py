"""Tests for the deterministic hierarchical RNG streams."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.columnar.kernels import element_keys_array
from repro.core import solve_d1c, solve_d1lc
from repro.graphs import degree_plus_one_lists, gnp_graph, ring_of_cliques
from repro.hashing.keys import element_key, mix64, mix64_step
from repro.utils.rng import RngStream


class TestRngStream:
    def test_node_streams_are_stable(self):
        stream = RngStream(42)
        assert stream.for_node("v1").randrange(1 << 53) == stream.for_node("v1").randrange(1 << 53)

    def test_node_streams_are_independent(self):
        stream = RngStream(42)
        assert stream.for_node("v1").randrange(1 << 53) != stream.for_node("v2").randrange(1 << 53)

    def test_edge_stream_symmetric(self):
        stream = RngStream(7)
        assert (
            stream.for_edge("a", "b").randrange(1 << 53)
            == stream.for_edge("b", "a").randrange(1 << 53)
        )

    def test_edge_stream_label_sensitivity(self):
        stream = RngStream(7)
        assert (
            stream.for_edge("a", "b", "x").randrange(1 << 53)
            != stream.for_edge("a", "b", "y").randrange(1 << 53)
        )

    @given(st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=0, max_value=100))
    def test_node_stream_reproducible_property(self, seed, node):
        a = RngStream(seed).for_node(node).randrange(1 << 53)
        b = RngStream(seed).for_node(node).randrange(1 << 53)
        assert a == b


#: Nodes of every kind element_key distinguishes: small and huge ints,
#: negative ints (keyed through mix64), strs and tuples.
NODES = st.one_of(
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.text(max_size=6),
    st.tuples(st.integers(min_value=-5, max_value=5), st.text(max_size=3)),
)

#: Range sizes: 1, powers of two and their neighbours (where rejection is
#: most and least likely), and anything up to 2**62.
SIZES = st.one_of(
    st.just(1),
    st.integers(min_value=1, max_value=62).flatmap(
        lambda k: st.sampled_from([(1 << k) - 1, 1 << k, (1 << k) + 1])),
    st.integers(min_value=1, max_value=2 ** 62),
)

SEEDS = st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
LABELS = st.lists(st.one_of(st.text(max_size=8), st.integers()), max_size=2)


class TestEdgeStreamTwin:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=SEEDS,
        label=st.one_of(st.text(max_size=8), st.integers()),
        edges=st.lists(st.tuples(NODES, NODES, SIZES), min_size=1, max_size=12),
    )
    def test_array_twin_equals_scalar_stream(self, seed, label, edges):
        stream = RngStream(seed)
        us, vs, sizes = zip(*edges)
        scalar = [stream.for_edge(u, v, label).randrange(n) for u, v, n in edges]
        for first, second in ((us, vs), (vs, us)):
            twin = stream.edge_randrange(
                element_keys_array(first), element_keys_array(second),
                np.array(sizes, dtype=np.uint64), label,
            )
            assert twin.tolist() == scalar
        assert scalar == [stream.for_edge(v, u, label).randrange(n) for u, v, n in edges]
        assert all(0 <= draw < n for draw, (_u, _v, n) in zip(scalar, edges))

    @pytest.mark.parametrize("seed, u, v, labels, sizes, draws", [
        (7, 1, 2, ("triangle-detection",), [1000, 1000, 1000], [578, 714, 931]),
        (0, "a", "b", (), [1 << 53], [4906433786613858]),
        (-5, (1, "x"), 3, ("uniform-buddy",), [10, 1 << 62, 1],
         [5, 4354678816464080370, 0]),
        # A range wider than one output takes the top bits of two outputs.
        (2 ** 70, 9, 4, ("sim",), [(1 << 100) + 7, 3],
         [33670969437939987692445090688, 2]),
    ], ids=["int", "str", "tuple-negative-seed", "wide-range"])
    def test_golden_draws(self, seed, u, v, labels, sizes, draws):
        stream = RngStream(seed).for_edge(u, v, *labels)
        assert [stream.randrange(n) for n in sizes] == draws
        assert not isinstance(stream, random.Random)
        assert not hasattr(stream, "random") and not hasattr(stream, "seed")

    def test_empty_range_is_rejected(self):
        stream = RngStream(1)
        with pytest.raises(ValueError, match="empty range"):
            stream.for_edge(1, 2).randrange(0)
        with pytest.raises(ValueError, match="empty range"):
            stream.edge_randrange(np.array([1], dtype=np.uint64),
                                  np.array([2], dtype=np.uint64), 0)


class SpecNodeStream:
    """A node stream re-derived from its definition, independent of
    ``repro.utils.rng``: key ``mix64(element_key(seed), 0x4E4F4445 ("NODE"),
    element_key(node), *label keys)``, output ``j`` ``mix64_step(key, j)``."""

    def __init__(self, seed, node, *labels):
        self.key = mix64(element_key(seed), 0x4E4F4445, element_key(node),
                         *(element_key(label) for label in labels))
        self.j = 0

    def output(self):
        self.j += 1
        return mix64_step(self.key, self.j)

    def randrange(self, n):
        k = n.bit_length()
        words = -(-k // 64)
        while True:
            value = 0
            for _ in range(words):
                value = (value << 64) | self.output()
            value >>= 64 * words - k
            if value < n:
                return value

    def sample(self, population, k):
        pool = list(population)
        for i in range(k):
            j = i + self.randrange(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def shuffle(self, x):
        for i in range(len(x) - 1, 0, -1):
            j = self.randrange(i + 1)
            x[i], x[j] = x[j], x[i]


class TestNodeStreams:
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, labels=LABELS,
           draws=st.lists(st.tuples(NODES, SIZES), min_size=1, max_size=12))
    def test_node_randrange_equals_scalar_stream(self, seed, labels, draws):
        stream = RngStream(seed)
        nodes, sizes = zip(*draws)
        scalar = [stream.for_node(v, *labels).randrange(n) for v, n in draws]
        assert stream.node_randrange(nodes, list(sizes), *labels).tolist() == scalar
        assert scalar == [SpecNodeStream(seed, v, *labels).randrange(n) for v, n in draws]
        assert all(0 <= draw < n for draw, n in zip(scalar, sizes))
        # One range size for every node broadcasts.
        assert (stream.node_randrange(nodes, sizes[0], *labels).tolist()
                == [stream.for_node(v, *labels).randrange(sizes[0]) for v in nodes])

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, labels=LABELS, nodes=st.lists(NODES, min_size=1, max_size=12))
    def test_node_random_is_the_first_output_top_53_bits(self, seed, labels, nodes):
        values = RngStream(seed).node_random(nodes, *labels)
        assert values.dtype == np.float64
        assert values.tolist() == [
            (SpecNodeStream(seed, v, *labels).output() >> 11) * 2.0 ** -53 for v in nodes
        ]
        assert all(0.0 <= value < 1.0 for value in values.tolist())

    @pytest.mark.parametrize("seed, node, labels, sizes, population, k, shuffled, expected", [
        (7, 3, ("try-random", 12), [10, 1 << 62, 3], range(20), 5, 8,
         ([6, 2381117278975534033, 0], [3, 12, 6, 5, 4], [3, 1, 2, 7, 0, 5, 6, 4])),
        (-5, "v1", (), [1 << 53, 2], "abcdefg", 3, 5,
         ([4747094120861013, 0], ["a", "e", "b"], [4, 1, 0, 3, 2])),
        # A range wider than one output takes the top bits of two outputs.
        (2 ** 70, (4, "x"), ("multitrial-colors", 0), [(1 << 100) + 7], range(6), 6, 2,
         ([578586835069188265986356667830], [0, 4, 5, 3, 2, 1], [1, 0])),
    ], ids=["int", "str-negative-seed", "tuple-wide-range"])
    def test_golden_draws(self, seed, node, labels, sizes, population, k, shuffled, expected):
        """randrange, then sample, then shuffle, on one stream's counter."""
        results = []
        for stream in (RngStream(seed).for_node(node, *labels),
                       SpecNodeStream(seed, node, *labels)):
            draws = [stream.randrange(n) for n in sizes]
            sample = stream.sample(population, k)
            order = list(range(shuffled))
            stream.shuffle(order)
            results.append((draws, sample, order))
        assert results == [expected, expected]
        stream = RngStream(seed).for_node(node, *labels)
        assert not isinstance(stream, random.Random)
        assert not any(hasattr(stream, name) for name in ("random", "choice", "seed"))

    def test_empty_range_is_rejected(self):
        stream = RngStream(1)
        with pytest.raises(ValueError, match="empty range"):
            stream.for_node(1).randrange(0)
        with pytest.raises(ValueError, match="empty range"):
            stream.node_randrange([1, 2], [3, 0])
        assert stream.node_randrange([], []).size == 0
        assert stream.node_random([]).size == 0

    def test_solvers_neither_hash_nor_seed_an_mt19937(self, monkeypatch):
        """A columnar solve draws every node's randomness from counter
        streams: no SHA-256 digest and no ``random.Random`` seeding."""
        graphs = [gnp_graph(300, 0.05, seed=3), ring_of_cliques(12, 8)]
        lists = [degree_plus_one_lists(graph, seed=4) for graph in graphs]
        calls = {"sha256": 0, "seed": 0}
        sha256, seed = hashlib.sha256, random.Random.seed

        def counted_sha256(*args, **kwargs):
            calls["sha256"] += 1
            return sha256(*args, **kwargs)

        def counted_seed(self, *args, **kwargs):
            calls["seed"] += 1
            return seed(self, *args, **kwargs)

        monkeypatch.setattr(hashlib, "sha256", counted_sha256)
        monkeypatch.setattr(random.Random, "seed", counted_seed)
        for graph, graph_lists in zip(graphs, lists):
            assert solve_d1c(graph, seed=5, backend="columnar").is_valid
            assert solve_d1lc(graph, graph_lists, seed=5, backend="columnar").is_valid
        assert calls == {"sha256": 0, "seed": 0}
