"""Append-only write-ahead log of decided slots and view changes.

The SMR engine appends a ``decide`` record *before* acting on a decision
(write-ahead), so a replica that crashes with its disk intact can replay
the log and arrive at exactly the state it had durably committed to.
``view-change`` records are appended when a slot's consensus instance
advances views — they are compacted together with the decides and give
recovery forensics (how contested a slot was), but replay only consumes
decides: an unfinished instance restarts from view 1 and the pacemaker
re-walks, which is always safe.

:class:`MemoryWAL` is deterministic in-simulation persistence.  The
Python object plays the role of the disk: it survives a crash (the
process's volatile state is what a crash wipes) and is erased only by an
explicit disk-loss fault (:meth:`MemoryWAL.wipe`).

The log is compacted by :meth:`MemoryWAL.truncate_upto` once a
checkpoint at that slot becomes stable — everything at or below the
stable slot is covered by the checkpoint and need never be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

__all__ = [
    "DECIDE",
    "VIEW_CHANGE",
    "MemoryWAL",
    "WALRecord",
]

#: Record kinds.
DECIDE = "decide"
VIEW_CHANGE = "view-change"


@dataclass(frozen=True)
class WALRecord:
    """One append-only log entry.

    ``decide`` records carry the decided ``value`` of ``slot``;
    ``view-change`` records carry the ``view`` a slot's instance entered
    (``value`` is ``None``).
    """

    kind: str
    slot: int
    value: Any = None
    view: int = 0


class MemoryWAL:
    """The write-ahead log: a list standing in for a disk."""

    def __init__(self) -> None:
        self._records: List[WALRecord] = []
        #: Compaction bookkeeping (introspection / tests).
        self.appended_count = 0
        self.truncated_count = 0

    def append(self, record: WALRecord) -> None:
        self._records.append(record)
        self.appended_count += 1

    def append_decide(self, slot: int, value: Any) -> None:
        self.append(WALRecord(kind=DECIDE, slot=slot, value=value))

    def append_view_change(self, slot: int, view: int) -> None:
        self.append(WALRecord(kind=VIEW_CHANGE, slot=slot, view=view))

    def records(self) -> Tuple[WALRecord, ...]:
        """Every retained record, in append order."""
        return tuple(self._records)

    def decides(self) -> Tuple[Tuple[int, Any], ...]:
        """Retained ``(slot, value)`` decisions, in append order."""
        return tuple(
            (r.slot, r.value) for r in self.records() if r.kind == DECIDE
        )

    def truncate_upto(self, slot: int) -> int:
        """Drop records with ``record.slot <= slot``; returns how many."""
        kept = [r for r in self._records if r.slot > slot]
        dropped = len(self._records) - len(kept)
        self._records = kept
        self.truncated_count += dropped
        return dropped

    def wipe(self) -> None:
        """Erase everything (the disk-loss fault)."""
        self._records.clear()

    def __len__(self) -> int:
        return len(self.records())
