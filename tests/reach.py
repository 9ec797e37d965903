"""Ratchet on the ``src/repro`` functions that no shipped path calls.

Runs the examples, the CLI commands CI runs and perfbench's three workloads (tiny
size) in this process under a ``sys.settrace`` hook (cProfile, which ``suite run
--profile`` installs, takes the profile hook), prints each ``src/repro`` function
never called as ``module:qualname``, and exits 1 naming any that ``unreached.txt``
does not list, any listed name that ran and any listed name ``src/repro`` no
longer defines, so the list can only shrink.  The names in ``WALL_CLOCK`` are
printed and may be listed whether they ran or not: ``line_chart`` draws only a
trace with two resource samples, and the tracer samples once per wall-clock
second.  Usage:
``PYTHONPATH=src python tests/reach.py``
"""

import contextlib, inspect, io, os, runpy, sys, tempfile  # noqa: E401
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LISTED = Path(__file__).with_name("unreached.txt")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]
SCALE = "scale --only d1lc-gnp-n2000 --only d1c-powerlaw-n2000"
TWIN = "smoke --only gnp-d1c --trials 1"
WALL_CLOCK = {f"repro.obs.analytics.htmlreport:line_chart{suffix}"
              for suffix in ("", ".<locals>.sx", ".<locals>.sy")}
COMMANDS = [
    "color", "baseline", "acd", "triangles", "suite list", "suite list smoke",
    "suite run smoke --progress --trace {t}/a --digest {t}/a --out {t}/a",
    "suite run smoke --backend dict --out {t}/dict",
    # CI's worker-pool path; the workers run outside the trace hook, so the
    # serial runs stay for the solver code.
    "suite run smoke --only gnp-d1c --trials 2 --workers 2 --out {t}/workers",
    "suite run robustness --out {t}/robustness",
    "suite run conformance --trials 1 --out {t}/conformance",
    f"suite run {SCALE} --out {{t}}/scale", f"suite run {SCALE} --profile --out {{t}}/scale",
    "suite compare --fresh {t}/dict/BENCH_suite.json",
    "suite compare --baseline BENCH_forensics.json --fresh {t}/a/BENCH_suite.json",
    "suite compare --baseline BENCH_robustness.json --fresh {t}/robustness/BENCH_suite.json",
    "suite compare --baseline BENCH_scale_smoke.json --fresh {t}/scale/BENCH_suite.json"
    " --rss-budget 50",
    "trace summarize {t}/a/TRACE_powerlaw-d1lc.jsonl {t}/a/TRACE_gnp-d1c.jsonl",
    "trace summarize {t}/a/TRACE_gnp-d1c.jsonl --json",
    "diff {t}/a/TRACE_gnp-d1c.jsonl {t}/a/DIGEST_gnp-d1c.jsonl",
    f"suite run {TWIN} --digest {{t}}/clean --out {{t}}/clean",
    f"suite run {TWIN} --digest {{t}}/drift --out {{t}}/drift --faults corrupt=2e-3",
    "diff {t}/clean/DIGEST_gnp-d1c.jsonl {t}/drift/DIGEST_gnp-d1c.jsonl --bisect",
    "diff {t}/clean/DIGEST_gnp-d1c.jsonl {t}/drift/DIGEST_gnp-d1c.jsonl --bisect --json --trial 0",
    "report smoke --dir {t}/a", "report trend --dir {t}/a",
]


def main() -> int:
    from repro.cli import main as cli
    from perfbench.bench import run as perfbench
    from perfbench.workloads import WORKLOADS

    os.chdir(ROOT)
    seen = set()
    sys.settrace(lambda frame, event, arg: seen.add(frame.f_code))  # sees "call" events only
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for example in sorted((ROOT / "examples").glob("*.py")):
            runpy.run_path(str(example), run_name="__main__")
        with tempfile.TemporaryDirectory() as tmp:
            for command in (c.format(t=tmp) for c in COMMANDS):
                code = cli(command.split())
                if code != int("--bisect" in command):
                    sys.exit(f"repro {command} exited {code}")
        for name in WORKLOADS:
            perfbench(name, 1, seconds=0.0, trace=True, size="tiny")
    sys.settrace(None)
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in seen}
    defined, unreached = set(), set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        stack = [compile(path.read_text(), str(path.resolve()), "exec")]
        while stack:  # every function and method body, nested ones included
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            if code.co_flags & inspect.CO_NEWLOCALS and code.co_name[0] != "<":
                name = f"{module.removesuffix('.__init__')}:{code.co_qualname}"
                defined.add(name)
                if (code.co_filename, code.co_firstlineno) not in reached:
                    unreached.add(name)
    listed = set(LISTED.read_text().split())
    stale = listed - defined
    reached_now = listed - unreached - stale - WALL_CLOCK
    print("\n".join(sorted(unreached | (WALL_CLOCK & defined))))
    for name in sorted(reached_now):
        print(f"listed in {LISTED.name} but reached now: {name}", file=sys.stderr)
    for name in sorted(stale):
        print(f"listed in {LISTED.name} but not defined in src/repro: {name}",
              file=sys.stderr)
    for name in sorted(unreached - listed):
        print(f"unreached and not listed in {LISTED.name}: {name}", file=sys.stderr)
    return 1 if unreached - listed or stale or reached_now else 0


if __name__ == "__main__":
    sys.exit(main())
