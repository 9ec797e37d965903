"""Peak resident-set size over a window of the process's life.

Linux keeps the process's high-water mark in ``VmHWM`` and lets the process
reset it to the current RSS by writing ``5`` to ``/proc/self/clear_refs``, so
``reset()`` then ``peak_mb()`` is the peak of exactly the code in between.
Where that reset is unavailable the meter falls back to ``ru_maxrss``, a
process-lifetime mark that never goes down; ``source`` names which one is in
use, and the benchmark prints it with its results.
"""

from __future__ import annotations

import resource
import sys

_CLEAR_REFS = "/proc/self/clear_refs"
_STATUS = "/proc/self/status"


def _vm_hwm_kib() -> int:
    with open(_STATUS) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM line in " + _STATUS)


class PeakRss:
    """Resettable peak-RSS meter (``VmHWM`` where possible, else ``ru_maxrss``)."""

    def __init__(self) -> None:
        try:
            self._clear()
            _vm_hwm_kib()
        except OSError:
            self.source = "ru_maxrss"
        else:
            self.source = "VmHWM"

    @staticmethod
    def _clear() -> None:
        with open(_CLEAR_REFS, "w") as clear_refs:
            clear_refs.write("5")

    def reset(self) -> None:
        """Start a new window (a no-op under the ``ru_maxrss`` fallback)."""
        if self.source == "VmHWM":
            self._clear()

    def peak_mb(self) -> float:
        """Peak RSS in MiB since the last :meth:`reset`."""
        if self.source == "VmHWM":
            return _vm_hwm_kib() / 1024.0
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux but bytes on macOS.
        return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0
