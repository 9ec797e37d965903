"""Tests for the deterministic hierarchical RNG streams."""

from hypothesis import given, strategies as st

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
        assert stream.for_edge("a", "b").random() == stream.for_edge("b", "a").random()

    def test_edge_stream_label_sensitivity(self):
        stream = RngStream(7)
        assert (
            stream.for_edge("a", "b", "x").random()
            != stream.for_edge("a", "b", "y").random()
        )

    @given(st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=0, max_value=100))
    def test_node_stream_reproducible_property(self, seed, node):
        a = RngStream(seed).for_node(node).random()
        b = RngStream(seed).for_node(node).random()
        assert a == b
