"""Columnar core: kernels, broadcast deliveries and accounting pinned bit-for-bit.

The columnar backend's contract (DESIGN.md "Columnar core invariants") is
byte-identity with the ``dict`` reference backend.  The end-to-end half of
that contract lives in the equivalence matrix (``test_transport_equivalence``);
this module pins the *pieces* — vectorized splitmix64 kernels against the
scalar implementations, broadcast deliveries against the oracle's,
``charge_chunked`` (which the similarity kernel charges through) against a
literal chunk-by-chunk simulation, the similarity kernel against the scalar
sweep — so a drift in any one layer fails here with a precise finger
instead of as an opaque end-to-end diff.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import Message, Network, ProtocolError
from repro.congest.columnar import sweep
from repro.congest.columnar.kernels import (
    element_keys_array,
    hash_values_vec,
    member_prefixes_vec,
    mix64_step_vec,
    mix64_vec,
    scale_keys_vec,
)
from repro.core.acd import compute_acd
from repro.hashing.keys import (
    MIX64_INIT, combine_part_keys, element_key, mix64, mix64_step,
)
from repro.hashing.representative import RepresentativeHashFunction
from repro.obs import RoundTracer, deterministic_events
from repro.sampling.similarity import SimilarityParameters, estimate_similarity_on_edges
from repro.sampling.sparsity import estimate_global_sparsity, estimate_local_sparsity
from repro.sampling.triangles import detect_triangle_rich_edges
from round_driver import by_edge

MASK64 = (1 << 64) - 1

#: Adversarial 64-bit operands: zeros, all-ones, every bit-boundary power of
#: two and its neighbours, plus seeded random draws.
ADVERSARIAL = sorted(set(
    [0, 1, 2, MASK64, MASK64 - 1, (1 << 63), (1 << 63) - 1, (1 << 31),
     (1 << 32), (1 << 32) - 1, (1 << 53), 0x9E3779B97F4A7C15]
    + [random.Random(7).getrandbits(64) for _ in range(40)]
))


# --------------------------------------------------------------------------- #
# Kernel parity vs the scalar splitmix64 implementations
# --------------------------------------------------------------------------- #

class TestKernelParity:
    def test_mix64_step_matches_scalar(self):
        accs = np.array(ADVERSARIAL, dtype=np.uint64)
        vals = np.array(ADVERSARIAL[::-1], dtype=np.uint64)
        got = mix64_step_vec(accs, vals)
        expected = [mix64_step(a, v) for a, v in zip(ADVERSARIAL,
                                                     ADVERSARIAL[::-1])]
        assert got.tolist() == expected

    def test_mix64_chain_matches_scalar(self):
        a = np.array(ADVERSARIAL, dtype=np.uint64)
        b = np.array(ADVERSARIAL[::-1], dtype=np.uint64)
        got = mix64_vec(a, b, np.uint64(0xD809))
        expected = [mix64(x, y, 0xD809) for x, y in zip(ADVERSARIAL,
                                                        ADVERSARIAL[::-1])]
        assert got.tolist() == expected

    def test_scale_keys_match_combine_part_keys(self):
        keys = np.array(ADVERSARIAL, dtype=np.uint64)
        js = np.arange(len(ADVERSARIAL), dtype=np.uint64)
        got = scale_keys_vec(keys, js)
        expected = [combine_part_keys((k, j))
                    for k, j in zip(ADVERSARIAL, range(len(ADVERSARIAL)))]
        assert got.tolist() == expected
        # And combine_part_keys over int parts is element_key of the tuple,
        # closing the loop with the scalar sweep's scaled-element keying.
        assert expected[3] == element_key((ADVERSARIAL[3], 3))

    def test_member_prefixes_match_scalar_prefix(self):
        seeds = ADVERSARIAL[:12]
        indices = list(range(12))
        got = member_prefixes_vec(np.array(seeds, dtype=np.uint64),
                                  np.array(indices, dtype=np.uint64))
        expected = [mix64_step(mix64_step(MIX64_INIT, s), i)
                    for s, i in zip(seeds, indices)]
        assert got.tolist() == expected
        fn = RepresentativeHashFunction(seeds[5], indices[5], lam=97)
        assert int(got[5]) == fn._prefix

    def test_hash_values_match_scalar_draw(self):
        fn = RepresentativeHashFunction(0xDEAD, 2, lam=101)
        keys = np.array(ADVERSARIAL, dtype=np.uint64)
        got = hash_values_vec(np.uint64(fn._prefix), keys, np.uint64(101))
        expected = [1 + mix64_step(fn._prefix, k) % 101 for k in ADVERSARIAL]
        assert got.tolist() == expected

    def test_element_keys_array_matches_scalar(self):
        elements = [0, 1, MASK64, (1, 2), "node", True, -5, (0, "x")]
        got = element_keys_array(elements)
        assert got.tolist() == [element_key(x) for x in elements]

    def test_element_keys_fast_path_excludes_bool(self):
        # True is an int subclass; element_key(True) == 1 must come from the
        # bool branch, not a silent uint64 cast on the int fast path.
        assert element_keys_array([True, False]).tolist() == [1, 0]
        assert element_keys_array([5, 6, 7]).tolist() == [5, 6, 7]


# --------------------------------------------------------------------------- #
# Broadcast deliveries: gathered from the CSR rows
# --------------------------------------------------------------------------- #

def _dict_vs_columnar_broadcast(graph, values, bandwidth_bits=64):
    nets = [Network(graph, backend=b, bandwidth_bits=bandwidth_bits)
            for b in ("dict", "columnar")]
    delivered = [by_edge(net, net.broadcast(values, label="b")) for net in nets]
    return nets, delivered


class TestBroadcastDeliveries:
    def test_round_trip_reproduces_reference_deliveries(self):
        graph = nx.random_geometric_graph(40, 0.3, seed=3)
        values = {v: Message(content=(v, "payload"), bits=17)
                  for v in list(graph.nodes())[::2]}
        nets, (ref_in, col_in) = _dict_vs_columnar_broadcast(graph, values)
        assert col_in == ref_in
        assert nets[0].ledger.records == nets[1].ledger.records

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_payload_bytes_survive_round_trip(self, data):
        """Property: zero-bit and max-width payload *bytes* are preserved.

        Every payload object delivered through the columnar broadcast must
        be the identical content object the sender supplied — including
        ``bits=0`` messages (cheapest) and bandwidth-wide messages (widest),
        whose accounting differs but whose bytes must not.
        """
        n = data.draw(st.integers(min_value=4, max_value=20))
        seed = data.draw(st.integers(min_value=0, max_value=999))
        graph = nx.gnp_random_graph(n, 0.4, seed=seed)
        budget = 64
        nodes = list(graph.nodes())
        senders = data.draw(st.lists(st.sampled_from(nodes), unique=True,
                                     min_size=1, max_size=len(nodes)))
        values = {}
        for v in senders:
            payload = data.draw(st.one_of(
                st.binary(min_size=0, max_size=8),
                st.tuples(st.integers(), st.text(max_size=6)),
                st.just(b"\x00" * 8),
            ))
            bits = data.draw(st.sampled_from([0, 1, budget]))
            values[v] = Message(content=payload, bits=bits)
        nets, (ref_in, col_in) = _dict_vs_columnar_broadcast(
            graph, values, bandwidth_bits=budget)
        assert col_in == ref_in
        for (sender, _receiver), content in col_in.items():
            assert content is values[sender].content
        assert nets[0].ledger.records == nets[1].ledger.records


# --------------------------------------------------------------------------- #
# Chunk accounting vs a literal chunk-by-chunk simulation
# --------------------------------------------------------------------------- #

def _simulate_chunk_rounds(sizes, budget):
    """Literal reference: one budget-sized chunk per still-streaming edge."""
    remaining = list(sizes)
    records = []
    total_rounds = max([1] + [-(-b // budget) for b in sizes if b > 0])
    for r in range(total_rounds):
        count = bits_sum = max_bits = 0
        for i, left in enumerate(remaining):
            if left <= 0 and r > 0:
                continue
            sent = min(left, budget)
            remaining[i] = left - sent
            count += 1
            bits_sum += sent
            max_bits = max(max_bits, sent)
        records.append((count, bits_sum, max_bits))
    return records


class TestChunkedAccounting:
    @pytest.mark.parametrize("trial", range(10))
    def test_charge_chunked_matches_literal_simulation(self, trial):
        rng = random.Random(trial)
        budget = rng.choice([1, 3, 8, 17])
        sizes = [rng.choice([0, 1, budget - 1, budget, budget + 1,
                             3 * budget, rng.randrange(0, 6 * budget + 1)])
                 for _ in range(rng.randrange(1, 2000))]
        net = Network(nx.path_graph(4), backend="columnar",
                      bandwidth_bits=budget)
        net.transport.charge_chunked("o", Counter(sizes))
        got = [(r.message_count, r.total_bits, r.max_edge_bits)
               for r in net.ledger.records]
        assert got == _simulate_chunk_rounds(sizes, budget)

    def test_empty_and_local_records(self):
        net = Network(nx.path_graph(4), backend="columnar", mode="local")
        net.transport.charge_chunked("empty", {})
        net.transport.charge_chunked("local", Counter([5, 0, 9]))
        got = [(r.label, r.message_count, r.total_bits, r.max_edge_bits)
               for r in net.ledger.records]
        assert got == [("empty", 0, 0, 0), ("local", 3, 14, 9)]

    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    def test_beyond_int64_payload_matches_literal_simulation(self, backend):
        sizes = [1 << 80, 5]  # 1024 chunk rounds for the 2**80-bit payload
        budget = 1 << 70
        net = Network(nx.path_graph(3), backend=backend, bandwidth_bits=budget)
        net.exchange_chunked({(0, 1): Message(content="big", bits=sizes[0]),
                              (2, 1): Message(content="small", bits=sizes[1])})
        got = [(r.message_count, r.total_bits, r.max_edge_bits)
               for r in net.ledger.records]
        assert got == _simulate_chunk_rounds(sizes, budget)


# --------------------------------------------------------------------------- #
# The EstimateSimilarity kernel against the dict reference
# --------------------------------------------------------------------------- #

#: k = 1 everywhere; k mixing 1 (large sets) with 2..4 (small sets) in one
#: sweep; and the practical preset's k = 4.
SIMILARITY_PARAMS = {
    "k1": SimilarityParameters(eps=0.3, max_scale=1, sigma_cap=64),
    "mixed-k": SimilarityParameters(eps=0.3, scale_constant=0.05, sigma_cap=64),
    "practical": SimilarityParameters.practical(eps=0.3, seed=2),
}


def _similarity_graph():
    """Two planted cliques on a sparse background: mixed degrees, real overlaps."""
    graph = nx.gnp_random_graph(40, 0.12, seed=3)
    for clique in (range(0, 8), range(20, 27)):
        graph.add_edges_from(itertools.combinations(clique, 2))
    return graph


def _on_dict_and_columnar(graph, run, **options):
    """``run(network)`` on a dict and a columnar network, each with its records."""
    outcomes = []
    for backend in ("dict", "columnar"):
        network = Network(graph, backend=backend, **options)
        outcomes.append((run(network), network.ledger.records))
    return outcomes


def _sweep(params, edges=None, label="sim"):
    """``estimate_similarity_on_edges`` over the neighborhoods, as a list."""
    def run(network):
        sets = {v: set(network.neighbors(v)) for v in network.nodes}
        return list(estimate_similarity_on_edges(
            network, sets, edges=edges, params=params, seed=5, label=label,
        ).items())
    return run


def _spy_on_kernel(patch, builder="columnar_similarity"):
    """Per call of the kernel's input ``builder``, in call order: ``True`` if
    it ran, ``False`` if it declined."""
    calls = []
    kernel = getattr(sweep, builder)

    def spy(*args, **kwargs):
        result = kernel(*args, **kwargs)
        calls.append(result is not None)
        return result

    patch.setattr(sweep, builder, spy)
    return calls


@pytest.fixture
def kernel_ran(monkeypatch):
    return _spy_on_kernel(monkeypatch)


class TestSimilarityKernel:
    @pytest.mark.parametrize("name", list(SIMILARITY_PARAMS))
    def test_results_and_rounds_match_dict(self, kernel_ran, name):
        (ref, ref_rounds), (col, col_rounds) = _on_dict_and_columnar(
            _similarity_graph(), _sweep(SIMILARITY_PARAMS[name]))
        assert col == ref and col_rounds == ref_rounds
        assert kernel_ran == [False, True]
        assert any(result.shared_hash_values for _edge, result in col)

    def test_mixed_regime_mixes_scale_factors(self):
        params = SIMILARITY_PARAMS["mixed-k"]
        assert params.scale_factor(3) > 1 and params.scale_factor(12) == 1

    def test_block_boundaries_do_not_matter(self, monkeypatch):
        monkeypatch.setattr(sweep, "_BLOCK_ELEMENTS", 8)
        (ref, ref_rounds), (col, col_rounds) = _on_dict_and_columnar(
            _similarity_graph(), _sweep(SIMILARITY_PARAMS["practical"]))
        assert col == ref and col_rounds == ref_rounds

    @pytest.mark.parametrize("detector", [
        lambda net: detect_triangle_rich_edges(net, eps=0.3, seed=2),
        lambda net: estimate_local_sparsity(net, eps=0.3, seed=2),
        lambda net: estimate_global_sparsity(net, eps=0.3, seed=2),
    ], ids=["triangles", "local-sparsity", "global-sparsity"])
    def test_detection_and_sparsity_match_dict(self, kernel_ran, detector):
        (ref, ref_rounds), (col, col_rounds) = _on_dict_and_columnar(
            _similarity_graph(), detector)
        assert col == ref and col_rounds == ref_rounds
        assert kernel_ran == [False, True]

    def test_detection_draws_no_sha256_or_mt19937_seed(self, kernel_ran, monkeypatch):
        """The kernel's hash-function indices come from the splitmix64 edge
        stream's array twin, not a SHA-256-seeded ``random.Random`` per edge."""
        network = Network(_similarity_graph(), backend="columnar")
        calls = []
        sha256, seed = hashlib.sha256, random.Random.seed
        monkeypatch.setattr(hashlib, "sha256",
                            lambda *a, **k: calls.append("sha256") or sha256(*a, **k))
        monkeypatch.setattr(random.Random, "seed",
                            lambda self, *a, **k: calls.append("seed") or seed(self, *a, **k))
        result = detect_triangle_rich_edges(network, eps=0.3, seed=2)
        assert kernel_ran == [True] and result.flagged
        assert calls == []

    @pytest.mark.parametrize("relabel", [
        lambda v: f"n{v}", lambda v: (v % 3, str(v)),
    ], ids=["str", "tuple"])
    def test_non_integer_labels_take_the_element_key_fallback(self, kernel_ran, relabel):
        graph = nx.relabel_nodes(_similarity_graph(), relabel)
        (ref, ref_rounds), (col, col_rounds) = _on_dict_and_columnar(
            graph, lambda net: detect_triangle_rich_edges(net, eps=0.3, seed=4))
        assert col == ref and col_rounds == ref_rounds
        assert kernel_ran == [False, True]

    def test_empty_sets(self, kernel_ran):
        params = SIMILARITY_PARAMS["practical"]

        def run(network):
            some = {v: set(network.neighbors(v)) for v in network.nodes if v % 3}
            return [
                list(estimate_similarity_on_edges(
                    network, sets, params=params, seed=1, label=label).items())
                for label, sets in (("some", some), ("none", {}))
            ]

        (ref, ref_rounds), (col, col_rounds) = _on_dict_and_columnar(
            _similarity_graph(), run)
        assert col == ref and col_rounds == ref_rounds
        assert kernel_ran == [False, False, True, True]
        some, none = col
        assert {result.sigma == 0 for _edge, result in some} == {True, False}
        assert all(result.sigma == 0 for _edge, result in none)

    def test_local_mode(self, kernel_ran):
        (ref, ref_rounds), (col, col_rounds) = _on_dict_and_columnar(
            _similarity_graph(), _sweep(SIMILARITY_PARAMS["practical"]),
            mode="local")
        assert col == ref and col_rounds == ref_rounds
        assert kernel_ran == [False, True]

    def test_declines_outside_the_exact_regime(self, kernel_ran):
        params = SimilarityParameters(eps=1e-9, max_scale=1, sigma_cap=8)
        assert params.family(2).lam >= 1 << 32
        (ref, ref_rounds), (col, col_rounds) = _on_dict_and_columnar(
            nx.cycle_graph(6), _sweep(params))
        assert col == ref and col_rounds == ref_rounds
        assert kernel_ran == [False, False]

    @pytest.mark.parametrize("digest", [True, False], ids=["digest", "trace"])
    def test_tracers_decline_only_when_digesting(self, kernel_ran, digest):
        # A digest hashes delivered payloads, which the kernel never
        # materializes; a trace-only tracer reads the ledger alone.
        streams, ledgers = [], []
        for backend in ("dict", "columnar"):
            tracer = RoundTracer(digest=digest)
            network = Network(_similarity_graph(), backend=backend,
                              tracer=tracer)
            detect_triangle_rich_edges(network, eps=0.3, seed=3)
            tracer.close()
            streams.append(deterministic_events(tracer.events))
            ledgers.append(network.ledger.records)
        assert streams[0] == streams[1]
        assert ledgers[0] == ledgers[1]
        assert kernel_ran == [False, not digest]

    def test_declines_on_a_faulted_network(self, kernel_ran):
        # Any fault plan builds the fault transport, the dict oracle under
        # the plan, whichever backend is named: no ColumnarTransport runs.
        outcomes = []
        for backend in ("dict", "columnar"):
            network = Network(_similarity_graph(), backend=backend,
                              faults={"drop": 0.1}, fault_seed=3)
            result = detect_triangle_rich_edges(network, eps=0.3, seed=3)
            outcomes.append((result.estimates, network.ledger.records,
                             network.fault_stats))
        assert kernel_ran == [False, False]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2]["dropped_messages"] > 0

    def test_repeated_and_reversed_pairs_match_dict(self, kernel_ran):
        graph = _similarity_graph()
        edges = list(graph.edges())[:12]
        given = edges + [(v, u) for u, v in edges[:4]] + edges[5:7]

        def run(network):
            similarity = _sweep(SIMILARITY_PARAMS["practical"], edges=given,
                                label="dup")(network)
            triangles = detect_triangle_rich_edges(network, eps=0.3, edges=given,
                                                   seed=9)
            return similarity, triangles

        (ref, ref_rounds), (col, col_rounds) = _on_dict_and_columnar(graph, run)
        assert col == ref and col_rounds == ref_rounds
        assert kernel_ran == [False, False, False, False]
        # The reference's accounting, read off each stream's first chunk
        # round: one index message per unordered pair, one indicator per
        # directed key.
        first = {}
        for record in col_rounds:
            first.setdefault(record.label, record.message_count)
        pairs = len({frozenset(edge) for edge in given})
        assert first["dup:index"] == pairs and first["dup:indicator"] == 2 * pairs

    def test_acd_runs_the_kernel_only_on_columnar(self, kernel_ran, monkeypatch):
        csr_ran = _spy_on_kernel(monkeypatch, "csr_similarity")
        graph = nx.disjoint_union(nx.complete_graph(10), nx.complete_graph(10))
        (ref, ref_rounds), (col, col_rounds) = _on_dict_and_columnar(
            graph, lambda net: compute_acd(net, seed=1).friend_edges)
        assert col == ref and col_rounds == ref_rounds
        assert len(col) == 90
        # dict: the CSR builder declines, then the reference sweep offers the
        # mapping builder, which declines too; columnar: the CSR builder
        # runs, and the ACD never builds a sets mapping for the kernel.
        assert csr_ran == [False, True]
        assert kernel_ran == [False]

    @pytest.mark.parametrize("name", ["practical", "mixed-k"])
    def test_scaled_keys_are_hashed_once_per_node(self, kernel_ran, monkeypatch, name):
        params = SIMILARITY_PARAMS[name]
        hashed = []
        scale = sweep.scale_keys_vec

        def spy(keys, j_values):
            hashed.append(len(keys))
            return scale(keys, j_values)

        monkeypatch.setattr(sweep, "scale_keys_vec", spy)
        graph = _similarity_graph()
        network = Network(graph, backend="columnar")
        sets = {v: set(graph.neighbors(v)) for v in graph}
        estimate_similarity_on_edges(network, sets, params=params, seed=5)
        assert kernel_ran == [True]
        k_max = {}
        for u, v in graph.edges():
            k = params.scale_factor(max(len(sets[u]), len(sets[v])))
            for node in (u, v):
                k_max[node] = max(k_max.get(node, 0), k)
        if name == "practical":
            assert set(k_max.values()) == {4}
            assert sum(hashed) == 4 * sum(len(sets[v]) for v in k_max)
        else:
            assert 0 < sum(hashed) <= sum(k * len(sets[v]) for v, k in k_max.items())


def _member_sweeps(graph, members_of, params, seed=4):
    """The same sweep through both input builders, each on its own network.

    Node ``v``'s set is its neighbours among the members (``members_of``
    picks them from the node list); the pairs are the whole CSR upper
    triangle, so pairs with a non-member endpoint have an empty set.
    """
    outcomes = []
    for builder in ("mapping", "csr"):
        network = Network(graph, backend="columnar")
        topology = network.topology
        nodes = topology.nodes
        members = np.zeros(len(nodes), dtype=bool)
        members[topology.index_array(members_of(list(nodes)))] = True
        degree = np.where(members, topology.neighbor_counts(nodes, members), 0)
        rows = np.repeat(np.arange(len(nodes)), np.diff(topology.indptr))
        upper = rows < topology.indices
        pairs = np.stack((rows[upper], topology.indices[upper]), axis=1)
        if builder == "mapping":
            sets = {nodes[i]: {nodes[j] for j in topology.indices[
                topology.indptr[i]:topology.indptr[i + 1]].tolist() if members[j]}
                for i in np.flatnonzero(members).tolist()}
            edges = [(nodes[u], nodes[v]) for u, v in pairs.tolist()]
            result = sweep.columnar_similarity(network, sets, edges, params, seed, "b")
        else:
            result = sweep.csr_similarity(network, members, degree, pairs, params, seed, "b")
        families = [(k, family.lam, family.sigma, family.size, family.family_seed)
                    for k, family in result.families]
        outcomes.append((result.swept.tolist(), families, result.which.tolist(),
                         result.estimates.tolist(), result.offsets.tolist(),
                         result.values.tolist(), network.ledger.records))
    return outcomes


class TestCsrBuilder:
    """The CSR builder (a member mask over the CSR) and the mapping builder
    (per-node sets and node pairs) feed the one core the same sweep."""

    @pytest.mark.parametrize("name", ["practical", "mixed-k"])
    @pytest.mark.parametrize("graph", [
        nx.gnp_random_graph(60, 0.15, seed=2),
        nx.relabel_nodes(nx.ring_of_cliques(5, 6), lambda v: f"n{v}"),
    ], ids=["gnp", "ring-of-cliques"])
    @pytest.mark.parametrize("partial", [False, True], ids=["all", "partial"])
    def test_same_estimates_and_records(self, graph, name, partial):
        members_of = ((lambda nodes: [v for i, v in enumerate(nodes) if i % 4])
                      if partial else (lambda nodes: nodes))
        mapping, csr = _member_sweeps(graph, members_of, SIMILARITY_PARAMS[name])
        assert csr == mapping
        swept = csr[0]
        assert any(swept) and (all(swept) != partial)
        assert any(csr[5])  # some shared values

    def test_block_boundaries_do_not_matter(self, monkeypatch):
        graph = nx.gnp_random_graph(60, 0.15, seed=2)
        params = SIMILARITY_PARAMS["practical"]
        whole = _member_sweeps(graph, lambda nodes: nodes, params)
        monkeypatch.setattr(sweep, "_BLOCK_ELEMENTS", 8)
        assert _member_sweeps(graph, lambda nodes: nodes, params) == whole


#: ``k = ceil(9.95 / max_size)`` at these parameters: at least 5 up to size
#: 2, 2 from 5 to 9 and 1 from 10 on, so the hub of :func:`_k_mix_star`
#: sweeps edges at all three.
K_MIX = SimilarityParameters(eps=0.3, scale_constant=0.049)

ELEMENTS = st.one_of(
    st.integers(min_value=0, max_value=15),
    st.sampled_from(["a", "b", "c", "d"]),
    st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from(["x", "y"])),
)


def _k_mix_star(first):
    """A star with hub ``first`` and its sets: hub size 2, leaves 1, 6 and 12."""
    sets = {first: {0, "a"}, first + 1: {0}, first + 2: {0, "a", 1, 2, 3, "b"},
            first + 3: set(range(12))}
    return nx.star_graph(range(first, first + 4)), sets


@st.composite
def similarity_inputs(draw):
    """A small graph of isolated nodes, stars and cliques, with mixed sets."""
    makers = {"isolated": nx.empty_graph, "star": nx.star_graph,
              "clique": nx.complete_graph}
    graph = nx.empty_graph(0)
    parts = st.tuples(st.sampled_from(sorted(makers)), st.integers(1, 5))
    for kind, size in draw(st.lists(parts, max_size=4)):
        graph = nx.disjoint_union(graph, makers[kind](size))
    sets = {}
    for v in graph:
        members = draw(st.none() | st.sets(ELEMENTS, max_size=12))
        if members is not None:
            sets[v] = members
    if draw(st.booleans()):
        star, star_sets = _k_mix_star(len(graph))
        graph = nx.union(graph, star)
        sets.update(star_sets)
    params = draw(st.sampled_from(
        [K_MIX, SIMILARITY_PARAMS["practical"], SIMILARITY_PARAMS["k1"]]))
    params = dataclasses.replace(
        params, sigma_cap=draw(st.sampled_from([None, 1, 3, 64])))
    return graph, sets, params, draw(st.integers(0, 3))


class TestSimilarityKernelProperties:
    def test_k_mix_star_sweeps_one_node_at_k_1_2_and_5(self):
        graph, sets = _k_mix_star(0)
        factors = sorted(K_MIX.scale_factor(max(len(sets[u]), len(sets[v])))
                         for u, v in graph.edges())
        assert factors[0] == 1 and factors[1] == 2 and factors[2] >= 5

    @settings(max_examples=60, deadline=None)
    @given(inputs=similarity_inputs(), mode=st.sampled_from(["congest", "local"]),
           block=st.sampled_from([8, 1 << 18]))
    def test_kernel_matches_dict(self, inputs, mode, block):
        graph, sets, params, seed = inputs

        def run(network):
            return list(estimate_similarity_on_edges(
                network, sets, params=params, seed=seed, label="prop").items())

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep, "_BLOCK_ELEMENTS", block)
            ran = _spy_on_kernel(patch)
            (ref, ref_rounds), (col, col_rounds) = _on_dict_and_columnar(
                graph, run, mode=mode)
        assert col == ref and col_rounds == ref_rounds
        assert ran == [False, True]


#: Pairs of ``nx.cycle_graph(6)`` that are no edge, with the error the
#: reference's index round raises for them.
BAD_PAIRS = {
    "self-pair": ((4, 4), "node 4 cannot message itself"),
    "non-adjacent": ((0, 3), "0 and 3 are not adjacent"),
    "unknown-node": ((0, 9), "0 and 9 are not adjacent"),
}


class TestBadPairs:
    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    @pytest.mark.parametrize("name", list(BAD_PAIRS))
    @pytest.mark.parametrize("empty", [False, True], ids=["both-sets", "one-empty"])
    def test_rejected_before_any_round(self, backend, name, empty):
        pair, message = BAD_PAIRS[name]
        network = Network(nx.cycle_graph(6), backend=backend)
        sets = {v: {1, 2} for v in (*range(6), 9)}
        if empty:
            sets[pair[0]] = set()
        with pytest.raises(ProtocolError, match=message):
            estimate_similarity_on_edges(
                network, sets, edges=[(1, 2), pair, (2, 3)],
                params=SIMILARITY_PARAMS["practical"])
        assert network.ledger.records == []

    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    def test_triangle_detection_rejects_an_unknown_node(self, backend):
        network = Network(nx.cycle_graph(6), backend=backend)
        with pytest.raises(ProtocolError, match="0 and 9 are not adjacent"):
            detect_triangle_rich_edges(network, edges=[(0, 9)])
        assert network.ledger.records == []


# --------------------------------------------------------------------------- #
# broadcast_discard: a broadcast whose deliveries the caller drops
# --------------------------------------------------------------------------- #

class TestBroadcastDiscard:
    def test_ledger_identical_to_full_broadcast(self):
        graph = nx.random_geometric_graph(30, 0.3, seed=2)
        values = {v: Message(content=v, bits=9) for v in graph.nodes()}
        full = Network(graph, backend="columnar")
        lean = Network(graph, backend="columnar")
        full.broadcast(values, label="x")
        assert lean.broadcast_discard(values, label="x") is None
        assert lean.ledger.records == full.ledger.records

    def test_matches_reference_backends(self):
        graph = nx.star_graph(6)
        values = {0: Message(content="hub", bits=12), 3: 7}
        records = []
        for backend in ("dict", "columnar"):
            net = Network(graph, backend=backend)
            assert net.broadcast_discard(values, label="d") is None
            records.append(net.ledger.records)
        assert records[0] == records[1]

    def test_bandwidth_violation_still_raises(self):
        from repro.congest import BandwidthExceeded

        net = Network(nx.path_graph(3), backend="columnar", bandwidth_bits=4)
        with pytest.raises(BandwidthExceeded):
            net.broadcast_discard({0: Message(content="wide", bits=99)})

    def test_unknown_sender_raises_protocol_error(self):
        from repro.congest import ProtocolError

        net = Network(nx.path_graph(3), backend="columnar")
        with pytest.raises(ProtocolError):
            net.broadcast_discard({"ghost": 1})
