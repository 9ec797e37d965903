"""Spans around calls into each layer's public functions, for the traced run.

The program under test carries no tracing of its own here: :func:`patched`
swaps each layer's public entry points for timing wrappers and puts the
original objects back when it exits.  Layers are named after the modules
they live in (``congest.transport``, ``core.acd``, ...).

A span records its name, start, end and parent.  A layer's self time is the
summed duration of its spans minus the part covered by their child spans, so
the self times of one solve add up to the duration of its root spans.  Counts
(messages, bits, edges, colored nodes, ...) are taken at the same boundaries.
Top-level phase spans (graph generation, ``Network`` construction and the
four coloring phases) also reset the peak-RSS meter on entry and read it on
exit; nested spans never do, so one phase's reading is not cut short by
another's reset.

Wrapping is observation-only: the wrappers consume no randomness and pass
arguments and results through untouched, which the benchmark checks by
comparing the fingerprints of traced and untraced solves.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from perfbench.rss import PeakRss

#: The ``Network`` methods that move messages (every round goes through one).
TRANSPORT_METHODS = (
    "exchange",
    "broadcast",
    "broadcast_discard",
    "exchange_chunked",
    "broadcast_chunked",
    "charge_silent_round",
)


class Recorder:
    """Spans, counts and per-layer peak RSS of one traced stretch of work."""

    def __init__(self, rss: PeakRss):
        self.rss = rss
        #: One ``[name, start, end, parent_index]`` per span, in entry order.
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.peaks: Dict[str, float] = {}

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self.stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def count(self, layer: str, key: str, amount: float) -> None:
        self.counts[layer][key] += amount

    def note_peak(self, layer: str) -> None:
        peak = self.rss.peak_mb()
        if peak > self.peaks.get(layer, 0.0):
            self.peaks[layer] = peak

    @contextlib.contextmanager
    def span(self, name: str, phase: bool = False) -> Iterator[None]:
        """Span around a call the benchmark makes itself."""
        if phase:
            self.rss.reset()
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)
        if phase:
            self.note_peak(name)

    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), children in zip(self.spans, child_time):
            totals[name] += end - start - children
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        """Number of spans per layer."""
        totals: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span[0]] += 1
        return dict(totals)


class NullRecorder:
    """Stand-in for untraced runs: the benchmark's own spans cost nothing."""

    @contextlib.contextmanager
    def span(self, name: str, phase: bool = False) -> Iterator[None]:
        yield


NULL_RECORDER = NullRecorder()


# --------------------------------------------------------------------------- #
# Wrappers
# --------------------------------------------------------------------------- #

def _timed(rec: Recorder, layer: str, fn: Callable) -> Callable:
    """Lean wrapper for hot entry points: one span, nothing else."""
    spans, stack, clock = rec.spans, rec.stack, perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(spans)
        spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[index][2] = clock()

    return wrapper


def _observed(
    rec: Recorder,
    layer: str,
    fn: Callable,
    before: Optional[Callable] = None,
    after: Optional[Callable] = None,
    phase: bool = False,
) -> Callable:
    """Wrapper with count hooks: ``before(args, kwargs)`` returns a context
    that ``after(context, args, kwargs, result)`` turns into counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        context = before(args, kwargs) if before is not None else None
        if phase:
            rec.rss.reset()
        index = rec.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(index)
        if phase:
            rec.note_peak(layer)
        if after is not None:
            after(context, args, kwargs, result)
        return result

    return wrapper


def _layer_wrappers(rec: Recorder) -> List[Tuple[object, str, Callable[[Callable], Callable]]]:
    """``(owner, attribute, wrap)`` for every patched entry point."""
    import repro.congest.columnar.sweep as sweep_module
    import repro.core.acd as acd_module
    import repro.core.d1lc as d1lc_module
    import repro.sampling.sparsity as sparsity_module
    import repro.sampling.triangles as triangles_module
    from repro.congest.network import Network
    from repro.core.state import ColoringState
    from repro.utils.rng import RngStream

    count = rec.count

    def transport_before(args, kwargs):
        ledger = args[0].ledger
        return ledger, ledger.total_messages, ledger.total_bits

    def transport_after(context, args, kwargs, result):
        ledger, messages, bits = context
        count("congest.transport", "messages", ledger.total_messages - messages)
        count("congest.transport", "bits", ledger.total_bits - bits)

    def sweep_before(args, kwargs):
        return len(args[3] if len(args) > 3 else kwargs["edges"])

    def sweep_after(edges, args, kwargs, result):
        count("congest.columnar.sweep", "edges", edges)
        count("congest.columnar.sweep", "declines", result is None)

    def similarity_after(context, args, kwargs, result):
        count("sampling.similarity", "edges", len(result))

    def acd_after(context, args, kwargs, result):
        count("core.acd", "dense", len(result.clique_of))
        count("core.acd", "active", len(result.clique_of) + len(result.sparse_nodes)
              + len(result.uneven_nodes))

    def phase_hooks(layer: str, targets_of: Callable):
        def before(args, kwargs):
            state, acd = args[0], args[1]
            return sum(1 for v in targets_of(acd) if not state.is_colored(v))

        def after(targeted, args, kwargs, result):
            count(layer, "targeted", targeted)
            count(layer, "colored", len(result.colored))

        return before, after

    sparse_before, sparse_after = phase_hooks(
        "core.sparse_phase", lambda acd: acd.sparse_nodes | acd.uneven_nodes
    )
    dense_before, dense_after = phase_hooks("core.dense_phase", lambda acd: acd.dense_nodes)

    def fallback_before(args, kwargs):
        return args[0].network.ledger.rounds

    def fallback_after(rounds, args, kwargs, result):
        count("core.shattering", "nodes", len(result))
        count("core.shattering", "rounds", args[0].network.ledger.rounds - rounds)

    def observed(layer, before=None, after=None, phase=False):
        return lambda fn: _observed(rec, layer, fn, before, after, phase)

    def timed(layer):
        return lambda fn: _timed(rec, layer, fn)

    similarity = observed("sampling.similarity", after=similarity_after)
    return [
        (Network, "__init__", observed("congest.topology", phase=True)),
        *[
            (Network, method, observed("congest.transport", transport_before, transport_after))
            for method in TRANSPORT_METHODS
        ],
        # core.acd imports the sweep lazily, so its module attribute is the seam.
        (sweep_module, "columnar_buddy_edges",
         observed("congest.columnar.sweep", sweep_before, sweep_after)),
        (acd_module, "estimate_similarity_on_edges", similarity),
        (triangles_module, "estimate_similarity_on_edges", similarity),
        (sparsity_module, "estimate_similarity_on_edges", similarity),
        (RngStream, "for_node", timed("utils.rng")),
        (RngStream, "for_edge", timed("utils.rng")),
        # The coloring phases are looked up in core.d1lc's namespace per call.
        (d1lc_module, "compute_acd", observed("core.acd", after=acd_after, phase=True)),
        (d1lc_module, "run_sparse_phase",
         observed("core.sparse_phase", sparse_before, sparse_after, phase=True)),
        (d1lc_module, "run_dense_phase",
         observed("core.dense_phase", dense_before, dense_after, phase=True)),
        (d1lc_module, "deterministic_fallback",
         observed("core.shattering", fallback_before, fallback_after, phase=True)),
        (ColoringState, "__init__", timed("core.state")),
        (d1lc_module, "validate_coloring", timed("core.validate")),
    ]


def patch_points() -> List[Tuple[object, str]]:
    """Every ``(owner, attribute)`` the traced run replaces."""
    return [(owner, name) for owner, name, _wrap in _layer_wrappers(Recorder(PeakRss()))]


@contextlib.contextmanager
def patched(rec: Recorder) -> Iterator[Recorder]:
    """Install the layer wrappers for ``rec``; restore the originals on exit."""
    saved = []
    try:
        for owner, name, wrap in _layer_wrappers(rec):
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, wrap(original))
        yield rec
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
