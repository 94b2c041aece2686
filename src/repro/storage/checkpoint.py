"""Quorum-certified application-state checkpoints.

Every ``checkpoint_interval`` executed slots a replica snapshots its
state machine, hashes the snapshot (:func:`state_digest`) and broadcasts
a signed :class:`CheckpointVote`.  Once ``2f + 1`` distinct replicas
vote for the same ``(slot, digest)`` the checkpoint is *stable*: the
votes' signatures form a
:class:`~repro.core.certificates.CheckpointCertificate`, the write-ahead
log is compacted up to the slot, and the replica's execution/result
caches are pruned (see :meth:`repro.smr.replica.SMRReplica`).

:class:`CheckpointManager` is pure bookkeeping — pending local
snapshots and vote tallies — the replica orchestrates signing,
verification and what stabilization triggers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.certificates import CheckpointCertificate
from ..crypto.keys import Signature, canonical_bytes

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "CheckpointVote",
    "state_digest",
]


def state_digest(snapshot: Any) -> str:
    """Hex SHA-256 of a state-machine snapshot.

    Uses the signing serialization (:func:`~repro.crypto.keys.canonical_bytes`),
    so dict insertion order, ``PYTHONHASHSEED`` and platform never leak
    into the digest — two replicas with equal state always agree on it.
    """
    return hashlib.sha256(canonical_bytes(snapshot)).hexdigest()


@dataclass(frozen=True)
class CheckpointVote:
    """One replica's claim that executing up to ``slot`` yields ``digest``.

    ``signature`` covers :func:`~repro.core.payloads.checkpoint_payload`;
    it is ``None`` only for backends without a key registry (PBFT
    baseline), where stability falls back to counting distinct senders.
    """

    slot: int
    digest: str
    signature: Optional[Signature] = None


@dataclass(frozen=True)
class Checkpoint:
    """A stable checkpoint: the state snapshot plus its quorum evidence.

    ``state`` is whatever the state machine's ``snapshot()`` returned;
    ``digest`` must equal ``state_digest(state)`` (receivers re-hash —
    a certificate cannot vouch for a tampered payload otherwise), and
    ``cert`` carries the quorum signatures when the deployment signs.
    """

    slot: int
    state: Any
    digest: str
    cert: Optional[CheckpointCertificate] = None


class CheckpointManager:
    """Pending snapshots and vote tallies for one replica."""

    def __init__(self, interval: int) -> None:
        self.interval = interval
        #: slot -> (snapshot, digest) taken locally, not yet stable.
        self._pending: Dict[int, Tuple[Any, str]] = {}
        #: (slot, digest) -> {sender: signature-or-None}.
        self._votes: Dict[Tuple[int, str], Dict[int, Optional[Signature]]] = {}
        self.stable: Optional[Checkpoint] = None
        self.stabilized_count = 0

    # ------------------------------------------------------------------
    def boundary(self, slot: int) -> bool:
        """Whether executing ``slot`` completes a checkpoint interval."""
        return (slot + 1) % self.interval == 0

    @property
    def stable_slot(self) -> int:
        """Slot of the stable checkpoint (``-1`` before the first)."""
        return -1 if self.stable is None else self.stable.slot

    def record_local(self, slot: int, snapshot: Any, digest: str) -> None:
        if slot > self.stable_slot:
            self._pending[slot] = (snapshot, digest)

    def record_vote(
        self,
        slot: int,
        digest: str,
        sender: int,
        signature: Optional[Signature],
    ) -> None:
        if slot > self.stable_slot:
            self._votes.setdefault((slot, digest), {})[sender] = signature

    def ready(
        self, slot: int, digest: str, quorum: int
    ) -> Optional[Tuple[Any, Tuple[Signature, ...]]]:
        """``(snapshot, signatures)`` once the checkpoint can stabilize.

        Requires ``quorum`` distinct voters for ``(slot, digest)`` *and*
        a matching local snapshot — a replica that has not executed the
        slot yet keeps the votes and stabilizes when it catches up.
        """
        votes = self._votes.get((slot, digest), {})
        if len(votes) < quorum:
            return None
        pending = self._pending.get(slot)
        if pending is None or pending[1] != digest:
            return None
        signatures = tuple(
            sorted(
                (sig for sig in votes.values() if sig is not None),
                key=lambda sig: sig.signer,
            )
        )
        return pending[0], signatures

    def install_stable(self, checkpoint: Checkpoint) -> None:
        """Adopt ``checkpoint`` as stable; drop evidence it obsoletes."""
        if checkpoint.slot <= self.stable_slot:
            return
        self.stable = checkpoint
        self.stabilized_count += 1
        self._pending = {
            slot: entry
            for slot, entry in self._pending.items()
            if slot > checkpoint.slot
        }
        self._votes = {
            key: votes
            for key, votes in self._votes.items()
            if key[0] > checkpoint.slot
        }

    def reset(self) -> None:
        """Forget all volatile bookkeeping (crash recovery rebuilds it)."""
        self._pending.clear()
        self._votes.clear()
        self.stable = None
