"""SMR client: submits commands, accepts f + 1 matching replies.

A client is itself a simulated process.  It broadcasts each command to
every replica (so any current or future leader learns it), then waits for
``f + 1`` replicas to report the same result for the same request — at
most ``f`` replicas are Byzantine, so at least one of those replies comes
from a correct replica that really executed the command.  Unanswered
requests are retransmitted with exponential backoff.

Closed-loop clients keep up to ``window`` requests in flight (the knob
experiment E15 turns to saturate the replicas' batches and pipeline);
open-loop clients submit everything immediately at start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.quorums import one_correct
from ..sim.process import Process
from .kvstore import Command
from .replica import Reply, Request

__all__ = ["CommandOutcome", "SMRClient"]


@dataclass
class CommandOutcome:
    """Lifecycle of one submitted command."""

    request_id: int
    command: Command
    submitted_at: float
    completed_at: Optional[float] = None
    result: Any = None
    slot: Optional[int] = None

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


class SMRClient(Process):
    """Submits a workload of commands to a replica group."""

    MESSAGES = ((Reply, "_handle_reply", "none", "reply", None),)

    def __init__(
        self,
        pid: int,
        replica_pids: Sequence[int],
        f: int,
        retry_timeout: float = 40.0,
        window: int = 1,
        on_complete: Optional[Callable[[CommandOutcome], None]] = None,
    ) -> None:
        super().__init__(pid)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.replica_pids = tuple(replica_pids)
        self.f = f
        self.retry_timeout = retry_timeout
        self.window = window
        self.on_complete = on_complete
        self._next_request_id = 0
        self.outcomes: Dict[int, CommandOutcome] = {}
        #: Outcomes with ``completed_at`` set; counted where that happens
        #: because run loops ask "are we done?" after every event.
        self._completed = 0
        self._reply_votes: Dict[int, Dict[Tuple[Any, int], Set[int]]] = {}
        self._workload: List[Command] = []
        self._inflight: Set[int] = set()
        self._closed_loop = True

    # ------------------------------------------------------------------
    # Workload driving
    # ------------------------------------------------------------------

    def load_workload(self, commands: Sequence[Command], closed_loop: bool = True) -> None:
        """Queue commands; closed-loop keeps up to ``window`` in flight,
        open-loop submits everything immediately at start."""
        self._workload = list(commands)
        self._closed_loop = closed_loop

    def on_start(self) -> None:
        if not self._workload:
            return
        if self._closed_loop:
            self._fill_window()
        else:
            while self._workload:
                self.submit(self._workload.pop(0))

    def _fill_window(self) -> None:
        while self._workload and len(self._inflight) < self.window:
            self._inflight.add(self.submit(self._workload.pop(0)))

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, command: Command) -> int:
        """Submit one command; returns its request id."""
        request_id = self._next_request_id
        self._next_request_id += 1
        self.outcomes[request_id] = CommandOutcome(
            request_id=request_id, command=command, submitted_at=self.now
        )
        self._send_request(request_id, self.retry_timeout)
        return request_id

    def _send_request(self, request_id: int, backoff: float) -> None:
        outcome = self.outcomes[request_id]
        if outcome.completed:
            return
        request = Request(
            client=self.pid, request_id=request_id, command=outcome.command
        )
        send = self.send
        for replica in self.replica_pids:
            send(replica, request)
        # Timer keys are ("retry", id) tuples, not formatted strings: one
        # timer is armed per request send, so the f-string was hot-path.
        self.ctx.set_timer(
            ("retry", request_id),
            backoff,
            lambda: self._send_request(request_id, backoff * 2),
        )

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------

    def _handle_reply(self, sender: int, reply: Reply) -> None:
        if sender not in self.replica_pids or reply.client != self.pid:
            return
        outcome = self.outcomes.get(reply.request_id)
        if outcome is None or outcome.completed:
            return
        votes = self._reply_votes.setdefault(reply.request_id, {})
        key = (reply.result, reply.slot)
        senders = votes.setdefault(key, set())
        senders.add(sender)
        if len(senders) >= one_correct(self.f):
            # A completed request's late replies return above, unread.
            del self._reply_votes[reply.request_id]
            outcome.completed_at = self.now
            self._completed += 1
            outcome.result = reply.result
            outcome.slot = reply.slot
            self.ctx.cancel_timer(("retry", reply.request_id))
            self._inflight.discard(reply.request_id)
            if self.on_complete is not None:
                self.on_complete(outcome)
            if self._closed_loop:
                self._fill_window()

    # ------------------------------------------------------------------
    @property
    def completed_count(self) -> int:
        return self._completed

    @property
    def all_completed(self) -> bool:
        return (
            bool(self.outcomes)
            and self._completed == len(self.outcomes)
            and not self._workload
        )

    def latencies(self) -> List[float]:
        return [
            o.latency for o in self.outcomes.values() if o.latency is not None
        ]
