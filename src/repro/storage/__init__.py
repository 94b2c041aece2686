"""Durability and state transfer for the SMR engine.

Three pieces, layered the way production BFT systems layer them:

* :mod:`repro.storage.wal` — an append-only write-ahead log of decided
  slots and view changes, kept in simulation (it survives a crash and
  is erased only by a disk-loss fault);
* :mod:`repro.storage.checkpoint` — periodic application-state
  checkpoints certified by ``2f + 1`` signed checkpoint votes, after
  which the WAL and the replica's execution/result caches are compacted;
* :mod:`repro.storage.catchup` — the peer state-transfer protocol a
  recovering or lagging replica uses to rejoin, validating checkpoint
  certificates and cross-checking ``f + 1`` matching replies against
  Byzantine responders.

:class:`~repro.storage.store.ReplicaStorage` ties a WAL and the stable
checkpoint together per replica; the engine integration lives in
:class:`repro.smr.replica.SMRReplica`.
"""

from .catchup import CatchupManager, CatchupReply, CatchupRequest
from .checkpoint import (
    Checkpoint,
    CheckpointManager,
    CheckpointVote,
    state_digest,
)
from .store import ReplicaStorage
from .wal import DECIDE, VIEW_CHANGE, MemoryWAL, WALRecord

__all__ = [
    "CatchupManager",
    "CatchupReply",
    "CatchupRequest",
    "Checkpoint",
    "CheckpointManager",
    "CheckpointVote",
    "DECIDE",
    "MemoryWAL",
    "ReplicaStorage",
    "VIEW_CHANGE",
    "WALRecord",
    "state_digest",
]
