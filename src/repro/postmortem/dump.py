"""Load and index flight-recorder dumps (JSON lines).

A dump is one header object (``{"flight": 1, "meta": {...}, ...}``)
followed by one event object per line, as written by
:meth:`repro.obs.recorder.FlightRecorder.dump`.  :class:`FlightDump`
indexes the events for the timeline/explain/diff verbs: by id, by slot,
by view, and by causal ancestry.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..obs.recorder import FlightEvent

__all__ = ["FlightDump", "load_dump", "PostmortemError"]


class PostmortemError(Exception):
    """A dump could not be read or does not contain what a verb needs."""


class FlightDump:
    """An in-memory flight record: header metadata plus indexed events."""

    def __init__(self, header: Dict[str, Any], events: List[FlightEvent]) -> None:
        self.header = header
        self.events = events
        self.by_id: Dict[int, FlightEvent] = {e.id: e for e in events}

    @property
    def meta(self) -> Dict[str, Any]:
        return self.header.get("meta", {})

    @property
    def dropped(self) -> int:
        return int(self.header.get("dropped", 0))

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def slots(self) -> List[int]:
        """Every slot number any event carries, sorted."""
        return sorted({e.slot for e in self.events if e.slot is not None})

    def views(self) -> List[int]:
        """Every view number any event carries, sorted."""
        return sorted({e.view for e in self.events if e.view is not None})

    def events_for_slot(self, slot: Optional[int]) -> List[FlightEvent]:
        return [e for e in self.events if e.slot == slot]

    def events_for_view(self, view: int) -> List[FlightEvent]:
        return [e for e in self.events if e.view == view]

    def decides(self) -> List[FlightEvent]:
        return [e for e in self.events if e.kind == "decide"]

    def ancestors(self, roots: Iterable[int]) -> Set[int]:
        """Transitive causal closure (event ids), including the roots.

        Parents evicted from the bounded ring are absent — the cut is
        minimal over what the record retained, and the line of each
        event that lost one says so (:func:`~.timeline.format_event`).
        """
        seen: Set[int] = set()
        stack = [eid for eid in roots]
        while stack:
            eid = stack.pop()
            if eid in seen:
                continue
            event = self.by_id.get(eid)
            if event is None:
                continue  # evicted
            seen.add(eid)
            stack.extend(event.parents)
        return seen

    def causal_cut(self, roots: Iterable[int]) -> List[FlightEvent]:
        """The ancestor events of ``roots``, in (time, id) order."""
        ids = self.ancestors(roots)
        return sorted(
            (self.by_id[eid] for eid in ids), key=lambda e: (e.time, e.id)
        )


def _event_from_dict(record: Dict[str, Any]) -> FlightEvent:
    return FlightEvent(
        id=record["id"],
        parents=tuple(record.get("parents", ())),
        kind=record["kind"],
        phase=record["phase"],
        time=record["time"],
        pid=record["pid"],
        peer=record.get("peer"),
        slot=record.get("slot"),
        view=record.get("view"),
        detail=record.get("detail"),
    )


def load_dump(path: str) -> FlightDump:
    """Parse a JSON-lines flight dump into a :class:`FlightDump`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
    except OSError as exc:
        raise PostmortemError(f"cannot read dump {path!r}: {exc}") from exc
    if not lines:
        raise PostmortemError(f"dump {path!r} is empty")
    try:
        header = json.loads(lines[0])
        events = [_event_from_dict(json.loads(line)) for line in lines[1:]]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise PostmortemError(f"malformed dump {path!r}: {exc}") from exc
    if header.get("flight") != 1:
        raise PostmortemError(
            f"{path!r} is not a flight dump (missing 'flight': 1 header)"
        )
    return FlightDump(header, events)
