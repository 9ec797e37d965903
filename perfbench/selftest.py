"""Self-tests of the benchmark, run at tiny size (n ≈ 200) in a few seconds.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench.bench import run  # noqa: E402
from perfbench.tracing import patch_points  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(name: str, seed: int, trace: bool):
    return run(name, seed, seconds=0.0, trace=trace, size="tiny")


@pytest.fixture(scope="module")
def runs():
    return {
        (name, seed, trace): _tiny(name, seed, trace)
        for name in WORKLOADS
        for seed, trace in ((1, False), (1, True), (2, False))
    }


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_appears_with_its_unit(runs, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = runs[(name, 1, trace)]
        line = result.as_line()
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in line["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_span_self_times_cover_the_traced_solve(runs, name):
    traced = [s for s in runs[(name, 1, True)].solves if s.recorder is not None]
    assert traced
    for solve in traced:
        covered = sum(solve.recorder.self_times().values())
        assert 0.9 * solve.seconds <= covered <= solve.seconds


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_fingerprints_agree(runs, name):
    result = runs[(name, 1, True)]
    by_instance = {}
    for solve in result.solves:
        by_instance.setdefault(solve.instance, set()).add(solve.outcome.fingerprint)
    assert all(len(prints) == 1 for prints in by_instance.values())
    assert result.fingerprint == runs[(name, 1, False)].fingerprint


def test_traced_run_restores_every_patched_attribute():
    points = patch_points()
    originals = [vars(owner)[attr] for owner, attr in points]
    _tiny("d1c-gnp-sparse", 3, True)
    _tiny("detect-triangle-rich", 3, True)
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(points, originals))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_the_inputs_but_no_metric_name(runs, name):
    first, second = runs[(name, 1, False)], runs[(name, 2, False)]

    def inputs(result):
        return [(sorted(inst.graph.edges()), inst.reference_lists) for inst in result.instances]

    assert inputs(first) != inputs(second)
    assert inputs(first) == inputs(_tiny(name, 1, False))
    assert list(first.metrics) == list(second.metrics)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        SPEC["command"] + ["--workload", "d1c-gnp-sparse", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
