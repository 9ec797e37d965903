"""Tests for metrics, ledger summaries and report formatting."""

import networkx as nx
import pytest

from repro.congest import Message, Network
from repro.metrics import format_table
from repro.metrics.ledger import (
    CounterLedger,
    RecordingLedger,
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

    @pytest.mark.parametrize("ledger", ["records", "counters"])
    def test_bits_and_messages_by_phase(self, ledger):
        net = Network(nx.path_graph(4), bandwidth_bits=32, ledger=ledger)
        net.exchange({(0, 1): Message(content=1, bits=10)}, label="acd:degrees")
        net.exchange({(0, 1): Message(content=1, bits=6),
                      (1, 2): Message(content=1, bits=4)}, label="acd:buddy")
        net.exchange({(2, 3): Message(content=1, bits=8)}, label="dense:slack")
        assert bits_by_phase(net) == {"acd": 20, "dense": 8}
        assert messages_by_phase(net) == {"acd": 3, "dense": 1}
        # The three helpers agree on phase keys by construction.
        assert set(rounds_by_phase(net)) == set(bits_by_phase(net))

    @pytest.mark.parametrize("ledger", ["records", "counters"])
    def test_phase_helpers_on_empty_ledger(self, ledger):
        net = Network(nx.path_graph(4), ledger=ledger)
        assert rounds_by_phase(net) == {}
        assert bits_by_phase(net) == {}
        assert messages_by_phase(net) == {}

    @pytest.mark.parametrize("ledger", ["records", "counters"])
    def test_phase_helpers_with_unlabeled_rounds(self, ledger):
        # A label with no ":" separator is its own phase; an empty label
        # folds into the "" phase rather than being dropped.
        net = Network(nx.path_graph(4), bandwidth_bits=32, ledger=ledger)
        net.exchange({(0, 1): Message(content=1, bits=5)}, label="bare")
        net.exchange({(1, 2): Message(content=1, bits=3)}, label="")
        assert rounds_by_phase(net) == {"bare": 1, "": 1}
        assert bits_by_phase(net) == {"bare": 5, "": 3}
        assert messages_by_phase(net) == {"bare": 1, "": 1}

    def test_by_label_helpers_match_across_ledgers(self):
        nets = {
            kind: Network(nx.path_graph(4), bandwidth_bits=32, ledger=kind)
            for kind in ("records", "counters")
        }
        for net in nets.values():
            net.exchange({(0, 1): Message(content=1, bits=10)}, label="a:one")
            net.exchange({(1, 2): Message(content=1, bits=20)}, label="a:two")
        rec, cnt = nets["records"].ledger, nets["counters"].ledger
        assert isinstance(rec, RecordingLedger)
        assert isinstance(cnt, CounterLedger)
        assert rec.bits_by_label() == cnt.bits_by_label()
        assert rec.messages_by_label() == cnt.messages_by_label()
        assert rec.rounds_by_label() == cnt.rounds_by_label()


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
