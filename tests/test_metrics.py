"""Tests for metrics, ledger summaries and report formatting."""

from collections import Counter

import networkx as nx
import pytest

from repro.congest import Message, Network
from repro.core.acd import compute_acd
from repro.core.params import ColoringParameters
from repro.graphs import gnp_graph
from repro.metrics import format_table
from repro.metrics.ledger import (
    RoundRecord,
    bits_by_phase,
    messages_by_phase,
    rounds_by_phase,
)


class TestLedgerSummaries:
    def test_rounds_by_phase_groups_prefixes(self):
        net = Network(nx.path_graph(4))
        net.exchange({(0, 1): 1}, label="acd:degrees")
        net.exchange({(0, 1): 1}, label="acd:buddy")
        net.exchange({(0, 1): 1}, label="dense:slack")
        assert rounds_by_phase(net) == {"acd": 2, "dense": 1}

    def test_bits_and_messages_by_phase(self):
        net = Network(nx.path_graph(4), bandwidth_bits=32)
        net.exchange({(0, 1): Message(content=1, bits=10)}, label="acd:degrees")
        net.exchange({(0, 1): Message(content=1, bits=6),
                      (1, 2): Message(content=1, bits=4)}, label="acd:buddy")
        net.exchange({(2, 3): Message(content=1, bits=8)}, label="dense:slack")
        assert bits_by_phase(net) == {"acd": 20, "dense": 8}
        assert messages_by_phase(net) == {"acd": 3, "dense": 1}
        # The three helpers agree on phase keys by construction.
        assert set(rounds_by_phase(net)) == set(bits_by_phase(net))

    def test_phase_helpers_on_empty_ledger(self):
        net = Network(nx.path_graph(4))
        assert rounds_by_phase(net) == {}
        assert bits_by_phase(net) == {}
        assert messages_by_phase(net) == {}

    def test_phase_helpers_with_unlabeled_rounds(self):
        # A label with no ":" separator is its own phase; an empty label
        # folds into the "" phase rather than being dropped.
        net = Network(nx.path_graph(4), bandwidth_bits=32)
        net.exchange({(0, 1): Message(content=1, bits=5)}, label="bare")
        net.exchange({(1, 2): Message(content=1, bits=3)}, label="")
        assert rounds_by_phase(net) == {"bare": 1, "": 1}
        assert bits_by_phase(net) == {"bare": 5, "": 3}
        assert messages_by_phase(net) == {"bare": 1, "": 1}


class TestLedgerRecords:
    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    def test_one_record_per_round_summing_to_the_aggregates(self, backend):
        # The ACD runs the columnar similarity kernel, which charges the
        # ledger directly; the broadcast and the silent round use the
        # transport.
        net = Network(gnp_graph(60, 0.15, seed=3), backend=backend)
        compute_acd(net, ColoringParameters.small(seed=1))
        net.broadcast({v: 1 for v in net.nodes}, label="extra:broadcast")
        net.charge_silent_round(label="extra:silent")
        ledger = net.ledger
        records = ledger.records
        assert ledger.rounds > 2
        assert all(type(r) is RoundRecord for r in records)
        assert [r.index for r in records] == list(range(1, ledger.rounds + 1))
        assert sum(r.message_count for r in records) == ledger.total_messages
        assert sum(r.total_bits for r in records) == ledger.total_bits
        assert max(r.max_edge_bits for r in records) == ledger.max_edge_bits
        assert ledger.rounds_by_label() == Counter(r.label for r in records)
        assert records[-1].message_count == records[-1].total_bits == 0


class TestReportFormatting:
    def test_format_table_alignment_and_header(self):
        rows = [{"n": 10, "rounds": 3.5}, {"n": 1000, "rounds": 12.25}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "n" in lines[1] and "rounds" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_table_handles_missing_columns(self):
        rows = [{"a": 1}, {"b": 2}]
        text = format_table(rows)
        assert "a" in text and "b" in text
