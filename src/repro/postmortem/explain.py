"""Explain an oracle violation from a flight dump.

The explainer looks for disagreement evidence in the record — decide
events where honest replicas committed different values for the same
slot (or, in consensus mode, for the single instance), or a same-pid
re-decide with a different value — and computes the **minimal causal
cut**: the transitive causal ancestors of the conflicting decides, as
retained by the bounded ring.  For a quorum-certificate protocol that
cut contains exactly the vote deliveries (and transitively their
sends) that formed each conflicting certificate, which is what makes
"why did p3 decide B when p0 decided A" answerable from the dump alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs.recorder import FlightEvent
from .dump import FlightDump
from .timeline import format_event

__all__ = ["Violation", "find_violations", "render_explanation"]


class Violation:
    """One detected disagreement: the slot and the conflicting decides."""

    def __init__(self, slot: Optional[int], decides: List[FlightEvent]) -> None:
        self.slot = slot
        self.decides = decides

    @property
    def values(self) -> List[str]:
        return sorted({e.detail or "?" for e in self.decides})

    def describe(self) -> str:
        where = (
            "the consensus instance" if self.slot is None else f"slot {self.slot}"
        )
        who = ", ".join(
            f"p{e.pid}={e.detail}" for e in sorted(self.decides, key=lambda e: e.pid)
        )
        return f"conflicting decisions for {where}: {who}"


def find_violations(dump: FlightDump) -> List[Violation]:
    """Disagreements among the run's honest processes, one per slot.

    Uses ``meta.honest_pids`` when the dump carries it (Byzantine
    processes are allowed to "decide" anything); falls back to all
    deciders otherwise.
    """
    honest = dump.meta.get("honest_pids")
    by_slot: Dict[Optional[int], Dict[int, List[FlightEvent]]] = {}
    for event in dump.decides():
        if honest is not None and event.pid not in honest:
            continue
        by_slot.setdefault(event.slot, {}).setdefault(event.pid, []).append(event)
    violations: List[Violation] = []
    for slot, by_pid in sorted(
        by_slot.items(), key=lambda item: (item[0] is None, item[0])
    ):
        # One decide per pid (its latest) for the cross-pid check, but a
        # same-pid re-decide with a different value is itself evidence.
        conflicting: List[FlightEvent] = []
        values = set()
        for decides in by_pid.values():
            pid_values = {e.detail for e in decides}
            if len(pid_values) > 1:
                conflicting.extend(decides)
            values.update(pid_values)
        if len(values) > 1:
            # Keep one representative decide per (pid, value).
            seen: set = set()
            for decides in by_pid.values():
                for event in decides:
                    key = (event.pid, event.detail)
                    if key not in seen:
                        seen.add(key)
                        conflicting.append(event)
        if conflicting:
            unique = sorted({e.id for e in conflicting})
            violations.append(
                Violation(slot, [dump.by_id[eid] for eid in unique])
            )
    return violations


def _views_of(cut: List[FlightEvent]) -> List[int]:
    return sorted({e.view for e in cut if e.view is not None})


def render_explanation(dump: FlightDump) -> Tuple[str, bool]:
    """(report text, violation_found) for the ``explain`` verb.

    When the record holds no disagreement but the run's metadata says
    an oracle failed (e.g. a liveness oracle), the report says so — the
    causal-cut machinery only applies to safety violations the decides
    witness.
    """
    meta = dump.meta
    lines: List[str] = []
    violations = find_violations(dump)
    if not violations:
        if meta.get("safety_violation") or meta.get("failures"):
            lines.append("oracle failure recorded, but the retained events")
            lines.append("hold no conflicting decisions:")
            if meta.get("safety_violation"):
                lines.append(f"  safety_violation: {meta['safety_violation']}")
            for name in meta.get("failures", ()):
                lines.append(f"  failed oracle: {name}")
            if dump.dropped:
                lines.append(
                    f"  ({dump.dropped} events were dropped by the ring — "
                    "a larger recorder capacity may retain the evidence)"
                )
            return "\n".join(lines), False
        return "no violation found: all recorded decisions agree", False

    if meta.get("safety_violation"):
        lines.append(f"recorded violation: {meta['safety_violation']}")
    for violation in violations:
        lines.append(violation.describe())
        cut = dump.causal_cut([e.id for e in violation.decides])
        views = _views_of(cut)
        if views:
            lines.append(
                f"views involved: {', '.join(str(v) for v in views)}"
            )
        votes = sum(1 for e in cut if e.kind == "vote" and e.phase == "deliver")
        lines.append(
            f"minimal causal cut: {len(cut)} events "
            f"({votes} certificate vote deliveries)"
        )
        lines.extend(format_event(event, dump.by_id) for event in cut)
    if dump.dropped:
        lines.append(
            f"note: {dump.dropped} earliest events were dropped by the ring; "
            "the cut is minimal over what was retained"
        )
    return "\n".join(lines), True
