"""Render flight dumps as human-readable timelines.

Three granularities, matching the CLI verbs:

* :func:`render_timeline` — the whole record, chronological;
* :func:`render_slot` — one slot's state-machine story (propose →
  votes → certificate → decide → WAL/checkpoint), plus a per-replica
  decision summary;
* :func:`render_view` — one view's story across slots (view votes,
  wishes, view entries, demotion activity).
"""

from __future__ import annotations

from typing import Container, List, Optional

from ..obs.recorder import FlightEvent
from .dump import FlightDump

__all__ = ["format_event", "render_timeline", "render_slot", "render_view"]


def format_event(event: FlightEvent, known: Container[int]) -> str:
    """One timeline line.  ``known`` holds the ids the dump retains: a
    parent outside it fell off the recorder's ring, and the line says so
    rather than naming an id nobody can look up."""
    arrow = "<-" if event.phase == "deliver" else "->"
    peer = "" if event.peer is None else f"{arrow}p{event.peer}"
    slot = "" if event.slot is None else f" slot={event.slot}"
    view = "" if event.view is None else f" view={event.view}"
    detail = "" if not event.detail else f"  {event.detail}"
    parents = (
        ""
        if not event.parents
        else "  <- " + ",".join(str(p) for p in event.parents)
    )
    broken = "".join(
        f"  [chain broken: parent {p} evicted]"
        for p in event.parents
        if p not in known
    )
    return (
        f"{event.time:10.2f}  #{event.id:<6} {event.phase:<7} "
        f"{event.kind:<17} p{event.pid}{peer}{slot}{view}{detail}{parents}{broken}"
    )


def _header_lines(dump: FlightDump) -> List[str]:
    meta = dump.meta
    lines = []
    if meta:
        scenario = meta.get("scenario", "?")
        protocol = meta.get("protocol", "?")
        lines.append(
            f"run        : {scenario} [{protocol}] "
            f"n={meta.get('n', '?')} f={meta.get('f', '?')} "
            f"mode={meta.get('mode', '?')}"
        )
        if meta.get("safety_violation"):
            lines.append(f"violation  : {meta['safety_violation']}")
        if meta.get("failures"):
            lines.append(f"failures   : {', '.join(meta['failures'])}")
    if dump.dropped:
        lines.append(
            f"note       : ring dropped {dump.dropped} earliest events; "
            "timelines start mid-run"
        )
    return lines


def render_timeline(dump: FlightDump, limit: Optional[int] = None) -> str:
    lines = _header_lines(dump)
    events = dump.events
    shown = events if limit is None else events[-limit:]
    if limit is not None and len(events) > limit:
        lines.append(f"... ({len(events) - limit} earlier events elided)")
    lines.extend(format_event(event, dump.by_id) for event in shown)
    if not events:
        lines.append("(no events recorded)")
    return "\n".join(lines)


def render_slot(dump: FlightDump, slot: int) -> str:
    events = dump.events_for_slot(slot)
    lines = _header_lines(dump)
    lines.append(f"slot {slot}: {len(events)} events")
    if not events:
        known = dump.slots()
        lines.append(
            f"(no events for slot {slot}; slots in record: {known or 'none'})"
        )
        return "\n".join(lines)
    lines.extend(format_event(event, dump.by_id) for event in events)
    decides = [e for e in events if e.kind == "decide"]
    if decides:
        lines.append("decisions:")
        lines.extend(
            f"  p{e.pid} decided {e.detail} at t={e.time}" for e in decides
        )
    view_changes = [e for e in events if e.kind == "view-change"]
    if view_changes:
        top = max(e.view for e in view_changes if e.view is not None)
        lines.append(f"contested  : reached view {top}")
    return "\n".join(lines)


def render_view(dump: FlightDump, view: int) -> str:
    events = dump.events_for_view(view)
    lines = _header_lines(dump)
    lines.append(f"view {view}: {len(events)} events")
    if not events:
        known = dump.views()
        lines.append(
            f"(no events for view {view}; views in record: {known or 'none'})"
        )
        return "\n".join(lines)
    lines.extend(format_event(event, dump.by_id) for event in events)
    entered = sorted(
        {e.pid for e in events if e.kind in ("view-change", "advocate")}
    )
    if entered:
        lines.append(
            "entered by : " + ", ".join(f"p{pid}" for pid in entered)
        )
    return "\n".join(lines)
