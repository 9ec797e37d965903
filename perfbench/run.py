"""Benchmark entry point: one run of one workload, result as the last line.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``d1c-gnp-sparse``, ``d1lc-ring-dense``, ``detect-triangle-rich``.
The program runs from ``src/`` of the same checkout (pure Python, nothing to
build).  Human-readable lines come first: the provenance block, the metrics
with their units, and the output fingerprint.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  The exit code is 0 only when every solve passed
its check; it is 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.bench import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"# perfbench {result.workload} seed={result.seed} trace={int(result.trace)}")
    print(json.dumps({"provenance": result.provenance}, sort_keys=True))
    for name, (value, unit) in result.metrics.items():
        print(f"{name:34s} {value:16.6g} {unit}")
    if not result.trace:
        for name in ("fallback_frac", "failed_frac"):
            if name in result.info:
                print(f"{name:34s} {result.info[name]:16.6g} ratio")
    print(json.dumps({"fingerprint": result.fingerprint, "info": result.info}, sort_keys=True))
    for problem in result.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result.as_line()), flush=True)
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
