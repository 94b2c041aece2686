"""Diff two flight dumps.

Event ids are assignment order and may differ between runs that
interleave differently, so the diff compares **normalized** events —
``(time, phase, kind, pid, peer, slot, view, detail)`` — in record
order.  Two runs of the same deterministic schedule (a re-run of a fuzz
reproducer, or the same scenario on two commits that should not have
changed behaviour) diff empty; a failing seed
vs its shrunk form shows exactly where the executions part ways.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..obs.recorder import FlightEvent
from .dump import FlightDump
from .timeline import format_event

__all__ = ["normalize", "diff_dumps", "render_diff"]

NormalizedEvent = Tuple[Any, ...]


def normalize(event: FlightEvent) -> NormalizedEvent:
    return (
        event.time,
        event.phase,
        event.kind,
        event.pid,
        event.peer,
        event.slot,
        event.view,
        event.detail,
    )


def diff_dumps(
    a: FlightDump, b: FlightDump
) -> Optional[Tuple[int, Optional[FlightEvent], Optional[FlightEvent]]]:
    """First divergence as ``(index, event_a, event_b)``; ``None`` when
    the normalized event sequences are identical."""
    events_a, events_b = a.events, b.events
    for index in range(min(len(events_a), len(events_b))):
        if normalize(events_a[index]) != normalize(events_b[index]):
            return index, events_a[index], events_b[index]
    if len(events_a) != len(events_b):
        index = min(len(events_a), len(events_b))
        return (
            index,
            events_a[index] if index < len(events_a) else None,
            events_b[index] if index < len(events_b) else None,
        )
    return None


def _kind_counts(dump: FlightDump) -> dict:
    counts: dict = {}
    for event in dump.events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


def render_diff(
    a: FlightDump, b: FlightDump, label_a: str, label_b: str
) -> Tuple[str, bool]:
    """(report text, identical) for the ``diff`` verb."""
    lines: List[str] = []
    divergence = diff_dumps(a, b)
    if divergence is None:
        return (
            f"identical: {len(a.events)} events match between "
            f"{label_a} and {label_b}",
            True,
        )
    index, event_a, event_b = divergence
    lines.append(
        f"dumps diverge at event {index} "
        f"({len(a.events)} events in {label_a}, {len(b.events)} in {label_b})"
    )
    lines.append(
        f"  {label_a}: "
        + (format_event(event_a, a.by_id).strip() if event_a else "(record ends)")
    )
    lines.append(
        f"  {label_b}: "
        + (format_event(event_b, b.by_id).strip() if event_b else "(record ends)")
    )
    counts_a, counts_b = _kind_counts(a), _kind_counts(b)
    deltas = []
    for kind in sorted(set(counts_a) | set(counts_b)):
        delta = counts_b.get(kind, 0) - counts_a.get(kind, 0)
        if delta:
            deltas.append(f"{kind}: {delta:+d}")
    if deltas:
        lines.append("event-count deltas (" + label_b + " - " + label_a + "):")
        lines.extend(f"  {entry}" for entry in deltas)
    return "\n".join(lines), False
