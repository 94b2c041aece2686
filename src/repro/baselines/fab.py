"""FaB Paxos baseline (Martin & Alvisi 2006): fast, but n = 3f + 2t + 1.

The protocol the paper improves on.  Its common case is identical in
shape to ours — the leader proposes, acceptors broadcast an acceptance,
``n - t`` matching acceptances decide in two message delays — but it
requires **two more processes** for the same (f, t): the recovery
protocol cannot exclude a proven equivocator (in FaB's model proposers
are separate from acceptors, Section 4.4 of the paper), so its vote
threshold is ``f + t + 1`` out of ``n - f`` reports, which only pins a
decided value when ``n >= 3f + 2t + 1``.

Simplifications (documented, deliberate): single-shot, and recovery
reports are not accompanied by transferable proofs; benchmarks exercise
the failure-free and crash-failure paths.  The quorum arithmetic — the
thing experiment E1 compares — is exactly FaB's.  The one decision
quorum is ``n - t`` and there is no slow path, so this baseline is live
only with at most ``t`` faults: with ``t < f`` and more than ``t``
silent processes it never decides (E12's FaB cell at 2 faults; the
strict-xfail reproducer in ``tests/test_baselines.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from ..core.protocol import DecidingProcess
from ..sync.synchronizer import Pacemaker

__all__ = ["FaBConfig", "FaBProcess", "FabPropose", "FabAccept", "FabReport"]


@dataclass(frozen=True)
class FaBConfig:
    """FaB Paxos parameters: tolerate f, fast when faults <= t."""

    n: int
    f: int
    t: int = -1  # defaults to f (the 5f + 1 configuration)
    allow_sub_resilient: bool = False

    def __post_init__(self) -> None:
        if self.t == -1:
            object.__setattr__(self, "t", self.f)
        if self.f < 1 or not (1 <= self.t <= self.f):
            raise ValueError(f"need f >= 1 and 1 <= t <= f (f={self.f}, t={self.t})")
        required = 3 * self.f + 2 * self.t + 1
        if self.n < required and not self.allow_sub_resilient:
            raise ValueError(
                f"FaB needs n >= 3f + 2t + 1 = {required}, got n={self.n}"
            )

    def leader_of(self, view: int) -> int:
        return (view - 1) % self.n

    @property
    def fast_quorum(self) -> int:
        """Acceptances needed to decide: ``n - t``."""
        return self.n - self.t

    @property
    def recovery_quorum(self) -> int:
        """Reports the new leader collects: ``n - f``."""
        return self.n - self.f

    @property
    def select_threshold(self) -> int:
        """Reports of one value that force re-proposing it: ``f + t + 1``.

        If a value was decided (``n - t`` acceptances), any ``n - f``
        report set contains at least ``(n - t) + (n - f) - n - f =
        n - 2f - t = f + t + 1`` honest reports of it (at n = 3f+2t+1),
        and no conflicting value can reach the same count.
        """
        return self.f + self.t + 1


@dataclass(frozen=True)
class FabPropose:
    value: Any
    view: int


@dataclass(frozen=True)
class FabAccept:
    value: Any
    view: int


@dataclass(frozen=True)
class FabReport:
    """Recovery report: the sender's accepted tuple."""

    view: int
    accepted_value: Any
    accepted_view: int  # 0 when nothing accepted


class FaBProcess(DecidingProcess):
    """A single-shot FaB Paxos process (proposer+acceptor+learner merged
    for deployment symmetry; the algorithm does not exploit colocation)."""

    MESSAGES = (
        (FabPropose, "_handle_propose", "exact", "propose", None),
        (FabAccept, "_handle_accept", "none", "vote", "fast_quorum"),
        (FabReport, "_handle_report", "fresh", "view-vote", None),
    )

    def __init__(
        self,
        pid: int,
        config: FaBConfig,
        input_value: Any,
        pacemaker_enabled: bool = True,
        base_timeout: float = 12.0,
    ) -> None:
        super().__init__(pid, input_value)
        self.config = config
        self.view = 1
        self.accepted: Optional[Tuple[Any, int]] = None
        self._accepted_views: Set[int] = set()
        self._accepts: Dict[Tuple[Any, int], Set[int]] = {}
        self._reports: Dict[int, Dict[int, FabReport]] = {}
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
            self.broadcast(FabPropose(value=self.input_value, view=1))

    # ------------------------------------------------------------------
    def _handle_propose(self, sender: int, message: FabPropose) -> None:
        if sender != self.config.leader_of(message.view):
            return
        if message.view in self._accepted_views:
            return
        self._accepted_views.add(message.view)
        if self.accepted is None or message.view > self.accepted[1]:
            self.accepted = (message.value, message.view)
        self.broadcast(FabAccept(value=message.value, view=message.view))

    def _handle_accept(self, sender: int, message: FabAccept) -> None:
        key = (message.value, message.view)
        senders = self._accepts.setdefault(key, set())
        senders.add(sender)
        if len(senders) >= self.config.fast_quorum:
            self.decide(message.value)

    # ------------------------------------------------------------------
    def enter_view(self, view: int) -> None:
        if view <= self.view:
            return
        if self.view_hook is not None:
            self.view_hook(view)
        self.view = view
        value, accepted_view = (
            self.accepted if self.accepted is not None else (None, 0)
        )
        report = FabReport(
            view=view, accepted_value=value, accepted_view=accepted_view
        )
        leader = self.config.leader_of(view)
        if leader == self.pid:
            self._record_report(self.pid, report)
        else:
            self.send(leader, report)

    def _handle_report(self, sender: int, message: FabReport) -> None:
        if self.config.leader_of(message.view) != self.pid:
            return
        self._record_report(sender, message)

    def _record_report(self, sender: int, report: FabReport) -> None:
        per_view = self._reports.setdefault(report.view, {})
        per_view[sender] = report
        if (
            report.view != self.view
            or report.view in self._proposed_views
            or len(per_view) < self.config.recovery_quorum
        ):
            return
        self._proposed_views.add(report.view)
        counts: Dict[Any, int] = {}
        for rep in per_view.values():
            if rep.accepted_view > 0:
                counts[rep.accepted_value] = counts.get(rep.accepted_value, 0) + 1
        forced = [
            value
            for value, count in counts.items()
            if count >= self.config.select_threshold
        ]
        value = forced[0] if forced else self.input_value
        self.broadcast(FabPropose(value=value, view=report.view))
