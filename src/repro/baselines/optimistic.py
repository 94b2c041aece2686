"""Kursawe-style optimistic consensus (related work [18]).

The first two-step Byzantine protocol (Kursawe 2002) runs on the optimal
``n = 3f + 1`` processes but its fast path succeeds only when *all* n
processes behave and the network is timely: a process decides fast only
on a **unanimous** ack quorum (n out of n).  Any single fault knocks it
off the fast path onto a slower fallback — in the original a randomized
protocol, here a PBFT-style two-phase finish, which is the flattering
choice (deterministic, 2 extra delays).

This baseline exists to quantify the paper's improvement over the
*other* point in the design space (Section 5): our generalized protocol
stays two-step under up to ``t`` faults, Kursawe-style only under zero.

Simplifications: single-shot; the fallback view change carries the
highest prepared tuple, without transferable proofs and *only* that:
a value decided on the unanimous fast path before anyone prepared it
can be lost by the view change, even in fault-free partially
synchronous runs (``python -m repro.fuzz campaign --protocols
optimistic --start 1``).  The experiments use this baseline's latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from ..core.protocol import DecidingProcess
from ..sync.synchronizer import Pacemaker

__all__ = [
    "OptimisticConfig",
    "OptimisticProcess",
    "OptPropose",
    "OptAck",
    "OptPrepare",
    "OptCommit",
    "OptViewChange",
]


@dataclass(frozen=True)
class OptimisticConfig:
    """Kursawe-style parameters: optimal resilience, unanimous fast path."""

    n: int
    f: int
    #: Simulated time after which a process abandons the fast path.
    fallback_timeout: float = 4.0

    def __post_init__(self) -> None:
        if self.f < 1:
            raise ValueError("f must be >= 1")
        if self.n < 3 * self.f + 1:
            raise ValueError(
                f"optimistic consensus needs n >= 3f + 1, got n={self.n}"
            )

    def leader_of(self, view: int) -> int:
        return (view - 1) % self.n

    @property
    def fast_quorum(self) -> int:
        """The optimistic path needs *every* process: n acks."""
        return self.n

    @property
    def quorum(self) -> int:
        """Fallback (PBFT-style) quorum: 2f + 1."""
        return 2 * self.f + 1


@dataclass(frozen=True)
class OptPropose:
    value: Any
    view: int


@dataclass(frozen=True)
class OptAck:
    value: Any
    view: int


@dataclass(frozen=True)
class OptPrepare:
    value: Any
    view: int


@dataclass(frozen=True)
class OptCommit:
    value: Any
    view: int


@dataclass(frozen=True)
class OptViewChange:
    view: int
    prepared_value: Any
    prepared_view: int


class OptimisticProcess(DecidingProcess):
    """Single-shot Kursawe-style optimistic Byzantine consensus."""

    # Stale prepares and commits are dropped, for PBFTProcess's reason.
    MESSAGES = (
        (OptPropose, "_handle_propose", "exact", "propose", None),
        (OptAck, "_handle_ack", "none", "vote", "fast_quorum"),
        (OptPrepare, "_handle_prepare", "fresh", "vote", None),
        (OptCommit, "_handle_commit", "fresh", "vote", None),
        (OptViewChange, "_handle_view_change", "fresh", "view-vote", None),
    )

    def __init__(
        self,
        pid: int,
        config: OptimisticConfig,
        input_value: Any,
        pacemaker_enabled: bool = True,
        base_timeout: float = 12.0,
    ) -> None:
        super().__init__(pid, input_value)
        self.config = config
        self.view = 1
        self.accepted: Optional[Tuple[Any, int]] = None
        self.prepared: Optional[Tuple[Any, int]] = None
        self.fell_back = False
        self._acked_views: Set[int] = set()
        self._acks: Dict[Tuple[Any, int], Set[int]] = {}
        self._prepares: Dict[Tuple[Any, int], Set[int]] = {}
        self._commit_sent: Set[Tuple[Any, int]] = set()
        self._commits: Dict[Tuple[Any, int], Set[int]] = {}
        self._view_changes: Dict[int, Dict[int, OptViewChange]] = {}
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
        self.ctx.set_timer(
            "opt-fallback", self.config.fallback_timeout, self._fall_back
        )
        if self.config.leader_of(1) == self.pid:
            self._proposed_views.add(1)
            self.broadcast(OptPropose(value=self.input_value, view=1))

    # ------------------------------------------------------------------
    # Optimistic path: unanimous acks
    # ------------------------------------------------------------------

    def _handle_propose(self, sender: int, message: OptPropose) -> None:
        if sender != self.config.leader_of(message.view):
            return
        if message.view in self._acked_views:
            return
        self._acked_views.add(message.view)
        self.accepted = (message.value, message.view)
        self.broadcast(OptAck(value=message.value, view=message.view))
        if self.fell_back:
            # Off the optimistic path: immediately vote to prepare the
            # proposal so the two-phase finish can complete.
            self.broadcast(OptPrepare(value=message.value, view=message.view))

    def _handle_ack(self, sender: int, message: OptAck) -> None:
        key = (message.value, message.view)
        senders = self._acks.setdefault(key, set())
        senders.add(sender)
        if not self.fell_back and len(senders) >= self.config.fast_quorum:
            # Unanimity: only possible when all n processes are correct
            # and timely (the Kursawe condition).
            self.decide(message.value)

    # ------------------------------------------------------------------
    # Fallback path: PBFT-style prepare/commit on the accepted value
    # ------------------------------------------------------------------

    def _fall_back(self) -> None:
        if self.decided or self.fell_back:
            return
        self.fell_back = True
        if self.accepted is not None:
            value, view = self.accepted
            if view == self.view:
                self.broadcast(OptPrepare(value=value, view=view))

    def _handle_prepare(self, sender: int, message: OptPrepare) -> None:
        key = (message.value, message.view)
        senders = self._prepares.setdefault(key, set())
        senders.add(sender)
        if (
            len(senders) >= self.config.quorum
            and key not in self._commit_sent
        ):
            self._commit_sent.add(key)
            if self.prepared is None or message.view > self.prepared[1]:
                self.prepared = (message.value, message.view)
            self.broadcast(OptCommit(value=message.value, view=message.view))

    def _handle_commit(self, sender: int, message: OptCommit) -> None:
        key = (message.value, message.view)
        senders = self._commits.setdefault(key, set())
        senders.add(sender)
        if len(senders) >= self.config.quorum:
            self.decide(message.value)

    # ------------------------------------------------------------------
    # View change (for a faulty leader)
    # ------------------------------------------------------------------

    def enter_view(self, view: int) -> None:
        if view <= self.view:
            return
        if self.view_hook is not None:
            self.view_hook(view)
        self.view = view
        self.fell_back = True  # no unanimity after a view change
        prepared_value, prepared_view = (
            self.prepared if self.prepared is not None else (None, 0)
        )
        message = OptViewChange(
            view=view, prepared_value=prepared_value, prepared_view=prepared_view
        )
        leader = self.config.leader_of(view)
        if leader == self.pid:
            self._record_view_change(self.pid, message)
        else:
            self.send(leader, message)

    def _handle_view_change(self, sender: int, message: OptViewChange) -> None:
        if self.config.leader_of(message.view) != self.pid:
            return
        self._record_view_change(sender, message)

    def _record_view_change(self, sender: int, message: OptViewChange) -> None:
        per_view = self._view_changes.setdefault(message.view, {})
        per_view[sender] = message
        if (
            message.view == self.view
            and message.view not in self._proposed_views
            and len(per_view) >= self.config.quorum
        ):
            self._proposed_views.add(message.view)
            best = max(per_view.values(), key=lambda vc: vc.prepared_view)
            value = (
                best.prepared_value if best.prepared_view > 0 else self.input_value
            )
            self.broadcast(OptPropose(value=value, view=message.view))
