"""Per-replica durable storage: one WAL plus the latest stable checkpoint.

:class:`ReplicaStorage` is the only thing a replica's recovery path may
read: everything else (pending requests, consensus instances, result
caches) is volatile and lost in a crash.  The facade keeps the two
durability invariants in one place:

* a checkpoint is installed *before* the WAL is compacted below it, so
  the union of checkpoint and WAL always covers every durably recorded
  slot;
* :meth:`wipe` models the disk-loss fault — after it, recovery has
  nothing local and must transfer state from peers.
"""

from __future__ import annotations

from typing import Optional

from .checkpoint import Checkpoint
from .wal import MemoryWAL

__all__ = ["ReplicaStorage"]


class ReplicaStorage:
    """What one replica's "disk" holds."""

    def __init__(self) -> None:
        self.wal = MemoryWAL()
        self._checkpoint: Optional[Checkpoint] = None

    # ------------------------------------------------------------------
    @property
    def checkpoint(self) -> Optional[Checkpoint]:
        return self._checkpoint

    @property
    def stable_slot(self) -> int:
        return -1 if self._checkpoint is None else self._checkpoint.slot

    def install_checkpoint(self, checkpoint: Checkpoint) -> int:
        """Persist a newer stable checkpoint and compact the WAL below it.

        Returns the number of WAL records compacted away.
        """
        if checkpoint.slot <= self.stable_slot:
            return 0
        self._checkpoint = checkpoint
        return self.wal.truncate_upto(checkpoint.slot)

    def wipe(self) -> None:
        """The disk-loss fault: WAL and checkpoint are gone."""
        self.wal.wipe()
        self._checkpoint = None
