"""Process resource sampling for traces and trial rows.

The sampler answers "what is this run costing the machine *right now*":
current resident-set size and cumulative CPU time.  Current RSS comes from
``/proc/self/statm`` where available (Linux); elsewhere it degrades to the
``ru_maxrss`` lifetime high-water mark — still useful for spotting growth,
and clearly labelled as a peak by :func:`current_rss_mb` returning the best
available number rather than failing.

Everything here is observation-only: no RNG, no writes, no side effects
beyond reading process counters — the same contract as the rest of
:mod:`repro.obs`.
"""

from __future__ import annotations

import os
import resource
import sys
from typing import Dict


def peak_rss_mb() -> float:
    """Lifetime peak resident-set size of this process, in MiB.

    ``ru_maxrss`` is a lifetime high-water mark, so a trial row's value is
    an upper bound: a light scenario that runs after a heavy one in the same
    (worker) process reports the heavy one's peak.  Regressions still
    surface — the per-suite maximum only ever grows because *some* scenario
    needed that much — and the number is machine state, so it lives in the
    timing artifact, never the byte-stable aggregate.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024  # Linux reports KiB; macOS reports bytes
    return round(peak / (1024.0 * 1024.0), 1)


def current_rss_mb() -> float:
    """Current resident-set size in MiB (falls back to the lifetime peak).

    ``/proc/self/statm`` field 1 is resident pages; multiplied by the page
    size it gives the live RSS, which is what a long run's trace should show
    (the peak only ever grows, hiding releases).
    """
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return round(pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0), 1)
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()


def cpu_seconds() -> float:
    """Cumulative user+system CPU time of this process, in seconds."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class ResourceSampler:
    """Produce one resource sample: current RSS and cumulative CPU time."""

    def sample(self) -> Dict[str, float]:
        return {
            "rss_mb": current_rss_mb(),
            "cpu_s": round(cpu_seconds(), 3),
        }
