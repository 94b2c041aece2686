"""Post-mortem analysis of flight-recorder dumps.

The diagnosis workflow this package closes:

1. **dump** — run with a :class:`~repro.obs.recorder.FlightRecorder`
   attached (``run_scenario(recorder=...)``, ``--record-out`` on the
   scenarios CLI, or automatically on fuzz-campaign failures) and write
   the JSON-lines flight record;
2. **timeline** — reconstruct what happened, whole-run or per
   slot/view (``python -m repro.postmortem timeline|slot|view``);
3. **explain** — on an oracle violation, compute the minimal causal
   cut of events that produced the conflicting decisions
   (``python -m repro.postmortem explain``);
4. **diff** — compare two dumps, e.g. a failing fuzz seed vs its
   shrunk reproducer, or the same schedule before and after a change
   (``python -m repro.postmortem diff``).
"""

from .diff import diff_dumps, normalize, render_diff
from .dump import FlightDump, PostmortemError, load_dump
from .explain import Violation, find_violations, render_explanation
from .timeline import format_event, render_slot, render_timeline, render_view

__all__ = [
    "FlightDump",
    "PostmortemError",
    "load_dump",
    "Violation",
    "find_violations",
    "render_explanation",
    "diff_dumps",
    "normalize",
    "render_diff",
    "format_event",
    "render_slot",
    "render_timeline",
    "render_view",
]
