"""PBFT-style baseline: optimal resilience (n = 3f + 1), three-step latency.

This is the classic Castro-Liskov common case, single-shot: the leader
broadcasts a pre-prepare, replicas echo a prepare, a ``2f + 1`` prepare
quorum triggers a commit broadcast, and a ``2f + 1`` commit quorum
decides — three message delays after the proposal, versus two for the
paper's protocol.  It exists here as the latency comparison point of the
paper's introduction (experiments E1 and E6).

Simplifications relative to deployed PBFT (documented, deliberate):
single-shot (no sequence numbers, checkpoints or garbage collection), and
the view change carries the highest *prepared* tuple without transferable
proofs, so Byzantine safety of the view change itself is not this
module's claim — benchmarks exercise the failure-free and crash-failure
paths.  The *latency* and *quorum* structure, which is what the paper
compares against, is faithful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from ..core.protocol import DecidingProcess
from ..sync.synchronizer import Pacemaker

__all__ = [
    "PBFTConfig",
    "PBFTProcess",
    "PrePrepare",
    "Prepare",
    "PBFTCommit",
    "PBFTViewChange",
]


@dataclass(frozen=True)
class PBFTConfig:
    """PBFT deployment parameters (n >= 3f + 1)."""

    n: int
    f: int

    def __post_init__(self) -> None:
        if self.f < 1:
            raise ValueError("f must be >= 1")
        if self.n < 3 * self.f + 1:
            raise ValueError(
                f"PBFT needs n >= 3f + 1, got n={self.n}, f={self.f}"
            )

    def leader_of(self, view: int) -> int:
        return (view - 1) % self.n

    @property
    def prepare_quorum(self) -> int:
        return 2 * self.f + 1

    @property
    def commit_quorum(self) -> int:
        return 2 * self.f + 1

    @property
    def view_change_quorum(self) -> int:
        return 2 * self.f + 1


@dataclass(frozen=True)
class PrePrepare:
    value: Any
    view: int


@dataclass(frozen=True)
class Prepare:
    value: Any
    view: int


@dataclass(frozen=True)
class PBFTCommit:
    value: Any
    view: int


@dataclass(frozen=True)
class PBFTViewChange:
    """Sent to the new leader: the sender's highest prepared tuple."""

    view: int
    prepared_value: Any
    prepared_view: int  # 0 when nothing prepared


class PBFTProcess(DecidingProcess):
    """A single-shot PBFT replica."""

    # Prepares and commits of a stale view are dropped ("fresh"):
    # counting them would let a view-1 prepare quorum complete *after*
    # the view change at replicas that never prepared in view 1 — their
    # commits could then decide the old value while view 2 decides a new
    # one (found by the fault-schedule fuzzer; delay alone triggers it).
    # Dropping them keeps the invariant that an old-view decision implies
    # a commit quorum whose senders all prepared that value, which the
    # view change then carries forward.
    MESSAGES = (
        (PrePrepare, "_handle_preprepare", "exact", "propose", None),
        (Prepare, "_handle_prepare", "fresh", "vote", "prepare_quorum"),
        (PBFTCommit, "_handle_commit", "fresh", "vote", "commit_quorum"),
        (PBFTViewChange, "_handle_view_change", "fresh", "view-vote", None),
    )

    def __init__(
        self,
        pid: int,
        config: PBFTConfig,
        input_value: Any,
        pacemaker_enabled: bool = True,
        base_timeout: float = 12.0,
    ) -> None:
        super().__init__(pid, input_value)
        self.config = config
        self.view = 1
        #: Highest (value, view) this replica prepared.
        self.prepared: Optional[Tuple[Any, int]] = None
        self._preprepared_views: Set[int] = set()
        self._prepares: Dict[Tuple[Any, int], Set[int]] = {}
        self._commit_sent: Set[Tuple[Any, int]] = set()
        self._commits: Dict[Tuple[Any, int], Set[int]] = {}
        self._view_changes: Dict[int, Dict[int, PBFTViewChange]] = {}
        self._proposed_views: Set[int] = set()
        self.pacemaker = Pacemaker(
            pid=pid,
            n=config.n,
            f=config.f,
            current_view=lambda: self.view,
            enter_view=self.enter_view,
            broadcast=self.broadcast,
            set_timer=lambda name, delay, cb: self.ctx.set_timer(name, delay, cb),
            cancel_timer=lambda name: self.ctx.cancel_timer(name),
            base_timeout=base_timeout,
            enabled=pacemaker_enabled,
        )

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self.pacemaker.start()
        if self.config.leader_of(1) == self.pid:
            self._proposed_views.add(1)
            self.broadcast(PrePrepare(value=self.input_value, view=1))

    # ------------------------------------------------------------------
    def _handle_preprepare(self, sender: int, message: PrePrepare) -> None:
        if sender != self.config.leader_of(message.view):
            return
        if message.view in self._preprepared_views:
            return
        self._preprepared_views.add(message.view)
        self.broadcast(Prepare(value=message.value, view=message.view))

    def _handle_prepare(self, sender: int, message: Prepare) -> None:
        key = (message.value, message.view)
        senders = self._prepares.setdefault(key, set())
        senders.add(sender)
        if (
            len(senders) >= self.config.prepare_quorum
            and key not in self._commit_sent
        ):
            self._commit_sent.add(key)
            if self.prepared is None or message.view > self.prepared[1]:
                self.prepared = (message.value, message.view)
            self.broadcast(PBFTCommit(value=message.value, view=message.view))

    def _handle_commit(self, sender: int, message: PBFTCommit) -> None:
        key = (message.value, message.view)
        senders = self._commits.setdefault(key, set())
        senders.add(sender)
        if len(senders) >= self.config.commit_quorum:
            self.decide(message.value)

    # ------------------------------------------------------------------
    def enter_view(self, view: int) -> None:
        if view <= self.view:
            return
        if self.view_hook is not None:
            self.view_hook(view)
        self.view = view
        prepared_value, prepared_view = (
            self.prepared if self.prepared is not None else (None, 0)
        )
        message = PBFTViewChange(
            view=view, prepared_value=prepared_value, prepared_view=prepared_view
        )
        leader = self.config.leader_of(view)
        if leader == self.pid:
            self._record_view_change(self.pid, message)
        else:
            self.send(leader, message)

    def _handle_view_change(self, sender: int, message: PBFTViewChange) -> None:
        if self.config.leader_of(message.view) != self.pid:
            return
        self._record_view_change(sender, message)

    def _record_view_change(self, sender: int, message: PBFTViewChange) -> None:
        per_view = self._view_changes.setdefault(message.view, {})
        per_view[sender] = message
        if (
            message.view == self.view
            and message.view not in self._proposed_views
            and len(per_view) >= self.config.view_change_quorum
        ):
            self._proposed_views.add(message.view)
            best = max(per_view.values(), key=lambda vc: vc.prepared_view)
            value = (
                best.prepared_value if best.prepared_view > 0 else self.input_value
            )
            self.broadcast(PrePrepare(value=value, view=message.view))
