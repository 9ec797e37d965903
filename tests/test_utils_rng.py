"""Tests for the deterministic hierarchical RNG streams."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.columnar.kernels import element_keys_array
from repro.utils.rng import RngStream, derive_rng


class TestDeriveRng:
    def test_same_labels_same_stream(self):
        assert derive_rng(1, "a", 2).random() == derive_rng(1, "a", 2).random()

    def test_different_labels_differ(self):
        assert derive_rng(1, "a").random() != derive_rng(1, "b").random()

    def test_different_seeds_differ(self):
        assert derive_rng(1, "a").random() != derive_rng(2, "a").random()


class TestRngStream:
    def test_node_streams_are_stable(self):
        stream = RngStream(42)
        assert stream.for_node("v1").random() == stream.for_node("v1").random()

    def test_node_streams_are_independent(self):
        stream = RngStream(42)
        assert stream.for_node("v1").random() != stream.for_node("v2").random()

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
        a = RngStream(seed).for_node(node).random()
        b = RngStream(seed).for_node(node).random()
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


class TestEdgeStreamTwin:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
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
