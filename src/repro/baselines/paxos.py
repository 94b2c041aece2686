"""Crash-fault Paxos baseline: n = 2f + 1, two-step common case.

The motivating gap of the paper's introduction: crash-fault consensus
(Paxos, Viewstamped Replication) decides two message delays after the
leader's proposal, while classic Byzantine protocols (PBFT) need three.
This single-shot multi-ballot Paxos provides the crash-side number for
experiments E1 and E6.

The first ballot is implicitly prepared (the standard "leader of ballot 1
skips phase 1" optimization), so the common case is: ``Accept`` broadcast
-> ``Accepted`` broadcast -> decide on a majority — two delays.  Later
ballots run full phase 1 (prepare/promise) then phase 2.  Faults are
crashes only; Byzantine behaviour is out of model here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Set, Tuple

from ..core.protocol import DecidingProcess
from ..core.quorums import one_correct
from ..sync.synchronizer import Pacemaker

__all__ = [
    "PaxosConfig",
    "PaxosProcess",
    "PaxosPrepare",
    "PaxosPromise",
    "PaxosAccept",
    "PaxosAccepted",
]


@dataclass(frozen=True)
class PaxosConfig:
    """Crash Paxos parameters (n >= 2f + 1)."""

    n: int
    f: int

    def __post_init__(self) -> None:
        if self.f < 0:
            raise ValueError("f must be >= 0")
        if self.n < 2 * self.f + 1:
            raise ValueError(f"Paxos needs n >= 2f + 1, got n={self.n}, f={self.f}")

    def leader_of(self, ballot: int) -> int:
        return (ballot - 1) % self.n

    @property
    def majority(self) -> int:
        return self.n // 2 + 1


@dataclass(frozen=True)
class PaxosPrepare:
    ballot: int


@dataclass(frozen=True)
class PaxosPromise:
    ballot: int
    accepted_ballot: int  # 0 when nothing accepted
    accepted_value: Any


@dataclass(frozen=True)
class PaxosAccept:
    ballot: int
    value: Any


@dataclass(frozen=True)
class PaxosAccepted:
    ballot: int
    value: Any


class PaxosProcess(DecidingProcess):
    """A single-shot Paxos process (proposer+acceptor+learner merged)."""

    # Ballots are compared with ``promised_ballot`` inside the handlers.
    MESSAGES = (
        (PaxosPrepare, "_handle_prepare", "none", "view-vote", None),
        (PaxosPromise, "_handle_promise", "none", "view-vote", None),
        (PaxosAccept, "_handle_accept", "none", "propose", None),
        (PaxosAccepted, "_handle_accepted", "none", "vote", "majority"),
    )

    def __init__(
        self,
        pid: int,
        config: PaxosConfig,
        input_value: Any,
        pacemaker_enabled: bool = True,
        base_timeout: float = 12.0,
    ) -> None:
        super().__init__(pid, input_value)
        self.config = config
        self.ballot = 1  # the "view" of the pacemaker
        self.promised_ballot = 0
        self.accepted_ballot = 0
        self.accepted_value: Any = None
        self._promises: Dict[int, Dict[int, PaxosPromise]] = {}
        self._accepteds: Dict[Tuple[int, Any], Set[int]] = {}
        self._phase2_started: Set[int] = set()
        # Crash model: a single timed-out process may push a new ballot.
        self.pacemaker = Pacemaker(
            pid=pid,
            n=config.n,
            f=config.f,
            current_view=lambda: self.ballot,
            enter_view=self.enter_ballot,
            broadcast=self.broadcast,
            set_timer=lambda name, delay, cb: self.ctx.set_timer(name, delay, cb),
            cancel_timer=lambda name: self.ctx.cancel_timer(name),
            base_timeout=base_timeout,
            enabled=pacemaker_enabled,
            entry_quorum=one_correct(self.config.f) if self.config.f > 0 else 1,
            amplify_quorum=1,
        )

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self.pacemaker.start()
        if self.config.leader_of(1) == self.pid:
            # Ballot 1 is implicitly prepared: go straight to phase 2.
            self._phase2_started.add(1)
            self.broadcast(PaxosAccept(ballot=1, value=self.input_value))

    # ------------------------------------------------------------------
    # Phase 1
    # ------------------------------------------------------------------

    def enter_ballot(self, ballot: int) -> None:
        if ballot <= self.ballot:
            return
        if self.view_hook is not None:
            self.view_hook(ballot)
        self.ballot = ballot
        if self.config.leader_of(ballot) == self.pid:
            self.broadcast(PaxosPrepare(ballot=ballot))

    def _handle_prepare(self, sender: int, message: PaxosPrepare) -> None:
        if message.ballot <= self.promised_ballot:
            return
        self.promised_ballot = message.ballot
        self.ballot = max(self.ballot, message.ballot)
        self.send(
            sender,
            PaxosPromise(
                ballot=message.ballot,
                accepted_ballot=self.accepted_ballot,
                accepted_value=self.accepted_value,
            ),
        )

    def _handle_promise(self, sender: int, message: PaxosPromise) -> None:
        per_ballot = self._promises.setdefault(message.ballot, {})
        per_ballot[sender] = message
        if (
            message.ballot in self._phase2_started
            or len(per_ballot) < self.config.majority
        ):
            return
        self._phase2_started.add(message.ballot)
        best = max(per_ballot.values(), key=lambda p: p.accepted_ballot)
        value = (
            best.accepted_value if best.accepted_ballot > 0 else self.input_value
        )
        self.broadcast(PaxosAccept(ballot=message.ballot, value=value))

    # ------------------------------------------------------------------
    # Phase 2
    # ------------------------------------------------------------------

    def _handle_accept(self, sender: int, message: PaxosAccept) -> None:
        if message.ballot < self.promised_ballot:
            return
        if sender != self.config.leader_of(message.ballot):
            return
        self.promised_ballot = message.ballot
        self.accepted_ballot = message.ballot
        self.accepted_value = message.value
        self.broadcast(PaxosAccepted(ballot=message.ballot, value=message.value))

    def _handle_accepted(self, sender: int, message: PaxosAccepted) -> None:
        key = (message.ballot, message.value)
        senders = self._accepteds.setdefault(key, set())
        senders.add(sender)
        if len(senders) >= self.config.majority:
            self.decide(message.value)
