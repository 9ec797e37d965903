"""Tests for EstimateSimilarity (Algorithm 1, Lemma 2)."""

import networkx as nx
import pytest

from repro.congest import TRANSPORT_BACKENDS, Network
from repro.sampling import SimilarityParameters, estimate_similarity_on_edges


def overlapping_sets(size: int, overlap: int, offset: int = 10_000):
    """Two sets of the given size sharing exactly ``overlap`` elements.

    The private elements start at ``offset`` and ``2 * offset``.
    """
    shared = set(range(overlap))
    left = shared | {offset + i for i in range(size - overlap)}
    right = shared | {2 * offset + i for i in range(size - overlap)}
    return left, right


def estimate_pair(left, right, params, seed, backend):
    """EstimateSimilarity between ``S_u = left`` and ``S_v = right`` on one edge."""
    network = Network(nx.path_graph(2), backend=backend)
    results = estimate_similarity_on_edges(
        network, {0: left, 1: right}, params=params, seed=seed
    )
    return results[(0, 1)]


class TestParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimilarityParameters(eps=0.0)
        with pytest.raises(ValueError):
            SimilarityParameters(eps=1.0)
        with pytest.raises(ValueError):
            SimilarityParameters(nu=0.0)
        with pytest.raises(ValueError):
            SimilarityParameters(scale_constant=0.0)

    def test_scale_factor_shrinks_with_set_size(self):
        params = SimilarityParameters(eps=0.25, nu=0.05)
        assert params.scale_factor(10) > params.scale_factor(10_000)

    def test_scale_factor_is_one_for_huge_sets(self):
        params = SimilarityParameters(eps=0.3, nu=0.1)
        assert params.scale_factor(10 ** 9) == 1

    def test_max_scale_cap(self):
        params = SimilarityParameters(eps=0.2, nu=0.05, max_scale=3)
        assert params.scale_factor(5) == 3

    def test_family_lambda_follows_algorithm1(self):
        params = SimilarityParameters(eps=0.25, nu=0.1)
        family = params.family(100)
        assert family.lam == int(8 * 100 / 0.25)

    def test_practical_preset_has_caps(self):
        params = SimilarityParameters.practical()
        assert params.sigma_cap is not None
        assert params.max_scale is not None


@pytest.mark.parametrize("backend", TRANSPORT_BACKENDS)
class TestTwoPartyEstimate:
    """Lemma 2 on one edge: the network form run on ``Network(path_graph(2))``.

    Parametrized over both backends, so the columnar kernel is pinned to the
    reference loop on these inputs too.
    """

    def test_empty_set_gives_zero(self, backend):
        result = estimate_pair(set(), {1, 2, 3}, SimilarityParameters(), 0, backend)
        assert result.estimate == 0.0

    def test_identical_sets(self, backend):
        elements = set(range(600))
        params = SimilarityParameters(eps=0.3, nu=0.1, max_scale=4, sigma_cap=2048, seed=1)
        result = estimate_pair(elements, elements, params, 0, backend)
        assert abs(result.estimate - 600) <= 0.3 * 600

    def test_disjoint_sets(self, backend):
        left = set(range(0, 500))
        right = set(range(1000, 1500))
        params = SimilarityParameters(eps=0.3, nu=0.1, max_scale=4, sigma_cap=2048, seed=1)
        result = estimate_pair(left, right, params, 0, backend)
        assert result.estimate <= 0.3 * 500

    def test_lemma2_accuracy_partial_overlap(self, backend):
        """The estimate is within eps*max(|Su|,|Sv|) for most random hash draws."""
        left, right = overlapping_sets(size=500, overlap=250)
        params = SimilarityParameters(eps=0.3, nu=0.1, max_scale=4, sigma_cap=2048, seed=2)
        good = 0
        trials = 15
        for trial in range(trials):
            result = estimate_pair(left, right, params, trial, backend)
            if abs(result.estimate - 250) <= 0.3 * 500:
                good += 1
        assert good >= 0.8 * trials

    @pytest.mark.parametrize("eps", [0.5, 0.3, 0.2])
    @pytest.mark.parametrize("overlap_fraction", [0.75, 0.5, 0.25, 0.05])
    def test_lemma2_accuracy_sweep(self, backend, eps, overlap_fraction):
        """Lemma 2 (E2): at least 80% of 20 runs land within ε·max(|Su|,|Sv|)."""
        size, trials = 600, 20
        overlap = int(overlap_fraction * size)
        left, right = overlapping_sets(size, overlap, offset=10 ** 6)
        params = SimilarityParameters(eps=eps, nu=0.1, max_scale=4, sigma_cap=4096, seed=1)
        within = sum(
            abs(estimate_pair(left, right, params, trial, backend).estimate - overlap)
            <= eps * size
            for trial in range(trials)
        )
        assert round(within / trials, 2) >= 0.8

    def test_bits_do_not_shrink_as_eps_tightens(self, backend):
        """Lemma 2 (E2): the message cost grows as ε shrinks (the ε^-4 term)."""
        left, right = overlapping_sets(600, 450, offset=10 ** 6)
        bits = {
            eps: estimate_pair(
                left, right,
                SimilarityParameters(eps=eps, nu=0.1, max_scale=4, sigma_cap=4096, seed=1),
                0, backend,
            ).bits_exchanged
            for eps in (0.5, 0.2)
        }
        assert bits[0.2] >= bits[0.5]

    def test_bits_exchanged_matches_sigma_and_index(self, backend):
        left, right = overlapping_sets(size=300, overlap=100)
        params = SimilarityParameters(eps=0.3, nu=0.1, max_scale=2, sigma_cap=512, seed=3)
        result = estimate_pair(left, right, params, 0, backend)
        assert result.bits_exchanged == 2 * result.sigma + params.family(
            300 * result.scale_factor
        ).index_bits

    def test_bits_do_not_depend_on_universe_elements(self, backend):
        """Communication is logarithmic in the universe: huge elements cost the same."""
        small_left, small_right = overlapping_sets(size=200, overlap=100)
        big_left = {x * 2 ** 50 for x in small_left}
        big_right = {x * 2 ** 50 for x in small_right}
        params = SimilarityParameters(eps=0.3, nu=0.1, max_scale=2, sigma_cap=512, seed=4)
        r_small = estimate_pair(small_left, small_right, params, 0, backend)
        r_big = estimate_pair(big_left, big_right, params, 0, backend)
        assert r_small.bits_exchanged == r_big.bits_exchanged

    def test_estimate_scales_down_with_scale_factor(self, backend):
        """Scaling the sets up by k (step 3) does not inflate the estimate."""
        left, right = overlapping_sets(size=40, overlap=20)
        params = SimilarityParameters(eps=0.4, nu=0.1, max_scale=6, sigma_cap=2048, seed=5)
        result = estimate_pair(left, right, params, 1, backend)
        assert result.scale_factor > 1
        assert result.estimate <= 40 + 0.4 * 40


class TestOnEdges:
    def test_constant_round_count(self, congest_network):
        sets = {v: set(congest_network.neighbors(v)) for v in congest_network.nodes}
        before = congest_network.rounds_used
        estimate_similarity_on_edges(
            congest_network, sets, params=SimilarityParameters.practical(seed=1)
        )
        rounds = congest_network.rounds_used - before
        # index round + ceil(sigma / bandwidth) chunked rounds: constant, well
        # below anything proportional to n or Delta.
        assert rounds <= 2 + 2048 // congest_network.bandwidth_bits + 2

    def test_results_for_all_requested_edges(self, congest_network):
        sets = {v: set(congest_network.neighbors(v)) for v in congest_network.nodes}
        edges = list(congest_network.graph.edges())[:10]
        results = estimate_similarity_on_edges(
            congest_network, sets, edges=edges,
            params=SimilarityParameters.practical(seed=2),
        )
        assert set(results) == {tuple(e) for e in edges}

    def test_empty_sets_give_zero_estimates(self, congest_network):
        sets = {v: set() for v in congest_network.nodes}
        results = estimate_similarity_on_edges(
            congest_network, sets, params=SimilarityParameters.practical(seed=3)
        )
        assert all(r.estimate == 0.0 for r in results.values())

    def test_bandwidth_never_exceeded(self, congest_network):
        sets = {v: set(congest_network.neighbors(v)) for v in congest_network.nodes}
        estimate_similarity_on_edges(
            congest_network, sets, params=SimilarityParameters.practical(seed=4)
        )
        assert congest_network.ledger.max_edge_bits <= congest_network.bandwidth_bits

    def test_accuracy_on_shared_neighborhoods(self):
        """Edges inside a clique report large intersections, cross edges small ones."""
        g = nx.complete_graph(20)
        g.add_edge(100, 0)
        g.add_edge(100, 101)
        g.add_edge(101, 1)
        net = Network(g)
        sets = {v: set(net.neighbors(v)) for v in net.nodes}
        results = estimate_similarity_on_edges(
            net, sets, params=SimilarityParameters.practical(eps=0.3, seed=5)
        )
        clique_edge = results[(0, 1)] if (0, 1) in results else results[(1, 0)]
        cross_edge = results[(100, 101)] if (100, 101) in results else results[(101, 100)]
        assert clique_edge.estimate > 10
        assert cross_edge.estimate < 5
