"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

Run one measurement from the repository root::

    python3 perfbench/run.py --workload d1c-gnp-sparse --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer split
(see ``BENCHMARK.json`` for both lists).  The self-tests run with::

    python3 -m pytest perfbench/selftest.py -q
"""
