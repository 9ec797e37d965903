"""E16 — Transport engine: the ``dict`` oracle vs the ``columnar`` fast path.

Both backends charge byte-identical ledgers (enforced by the equivalence
suite in ``tests/test_transport_equivalence.py``); this benchmark measures
what the fast path buys in wall-clock on the largest seed workload
(the n=240 D1LC instance of E9) plus a raw exchange/broadcast microbench.
The table also re-asserts the ledger equality end to end, so a perf run
doubles as a fidelity check.

The pipeline workload is the ``e16``-tagged scenario of the ``scaling``
suite, run through the experiment subsystem once per backend; the metric
equality check across backends is exactly what lets the suite's aggregate
snapshot omit the backend knob.
"""

from __future__ import annotations

import time
from dataclasses import replace

from benchmarks.conftest import emit, run_once
from repro.congest import TRANSPORT_BACKENDS, Message, Network
from repro.experiments import get_suite, run_scenarios
from repro.graphs import gnp_graph

N = 240
AVG_DEGREE = 10
#: The reference first, then the fast path it is timed against.
BACKENDS = ("dict",) + tuple(b for b in TRANSPORT_BACKENDS if b != "dict")

#: ``coloring_sha`` fingerprints the exact node->color assignment, so the
#: cross-backend check is as strong as the old ``a.coloring == b.coloring``.
METRIC_KEYS = ("valid", "rounds", "total_bits", "max_edge_bits", "colors_used",
               "coloring_sha")


def _pipeline_row():
    (spec,) = [s for s in get_suite("scaling") if "e16" in s.tags]
    timings = {}
    trials = {}
    for backend in BACKENDS:
        result = run_scenarios([replace(spec, backend=backend)], suite="scaling")
        trial = result.rows_for(spec.name)[0]
        timings[backend] = trial["wall_s"]
        trials[backend] = trial
    a = trials["dict"]
    for backend in BACKENDS[1:]:
        b = trials[backend]
        assert all(a[key] == b[key] for key in METRIC_KEYS), backend
    return {
        "workload": f"D1LC gnp n={a['n']}",
        "dict s": round(timings["dict"], 3),
        "columnar s": round(timings["columnar"], 3),
        "speedup": round(timings["dict"] / max(timings["columnar"], 1e-9), 2),
        "ledgers equal": True,
        "rounds": a["rounds"],
    }


def _microbench_row(rounds: int = 60):
    graph = gnp_graph(N, min(0.5, AVG_DEGREE / N), seed=N)
    timings = {}
    ledgers = {}
    for backend in BACKENDS:
        network = Network(graph, bandwidth_bits=256, backend=backend)
        payloads = {
            v: Message(content=v, bits=8, label="micro") for v in network.nodes
        }
        start = time.perf_counter()
        for _ in range(rounds):
            network.broadcast(payloads, label="micro:bcast")
            network.exchange(
                {(u, v): Message(content=1, bits=4, label="m")
                 for u in network.nodes for v in network.neighbors(u)},
                label="micro:exch",
            )
        timings[backend] = time.perf_counter() - start
        ledgers[backend] = (network.ledger.rounds, network.ledger.total_bits,
                            network.ledger.max_edge_bits)
    assert all(ledgers[b] == ledgers["dict"] for b in BACKENDS[1:])
    return {
        "workload": f"raw bcast+exch n={N} x{rounds}",
        "dict s": round(timings["dict"], 3),
        "columnar s": round(timings["columnar"], 3),
        "speedup": round(timings["dict"] / max(timings["columnar"], 1e-9), 2),
        "ledgers equal": True,
        "rounds": ledgers["dict"][0],
    }


def measure():
    return [_pipeline_row(), _microbench_row()]


def test_e16_transport_backends(benchmark):
    rows = run_once(benchmark, measure)
    emit(benchmark, "E16 — transport backends: identical ledgers, wall-clock "
                    "dict vs columnar", rows)
    # The fast path must never lose badly on the raw primitive path.
    micro = rows[1]
    assert micro["columnar s"] <= micro["dict s"] * 1.5
