"""Wall-clock access for campaign budgets.

The protocol, simulator, scenario and fuzz packages are wall-clock-free by
construction (the ``repro.lint`` D101 rule enforces it: simulated time is
the only time that may influence an execution).  Campaign *budgets* are
different — "stop fuzzing after N real seconds" is about the CI bill,
not the execution, and never feeds back into a trace.  This module is
the one sanctioned doorway: callers inject :func:`wall_clock` (or a fake
for tests) instead of reaching for :mod:`time` themselves.
"""

from __future__ import annotations

import time

__all__ = ["wall_clock"]


def wall_clock() -> float:
    """Monotonic wall-clock seconds (for budget accounting only)."""
    return time.monotonic()  # lint: ignore[D101]: budget accounting only, never feeds a trace
