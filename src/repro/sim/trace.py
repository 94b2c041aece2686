"""Execution traces: who sent what when, who decided what when.

The paper's headline metric is *common-case latency measured in message
delays*.  With the round-synchronous delay model every hop costs exactly
``DELTA``, so a decision at time ``k * DELTA`` is a ``k``-step decision.
:func:`message_delays` performs that conversion; :class:`TraceRecorder`
captures the raw material.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .network import Envelope, FanOut, Network, ProcessId

__all__ = [
    "Decision",
    "TraceRecorder",
    "message_delays",
    "ConsistencyViolation",
]


class ConsistencyViolation(Exception):
    """Two correct processes decided different values."""


@dataclass(frozen=True)
class Decision:
    """A decision event: ``pid`` decided ``value`` at simulated ``time``."""

    pid: ProcessId
    value: Any
    time: float


class TraceRecorder:
    """Records message sends and decisions for later analysis.

    ``fan_outs`` holds the network's own records, in send order: one
    :class:`~repro.sim.network.FanOut` per ``send`` / ``broadcast``,
    carrying the size the network accounted for one copy — so
    ``sum(len(r.dsts) * r.size for r in fan_outs) ==
    network.stats.bytes_sent`` and the trace digest formats that size
    rather than sizing payloads again.  The digest and the post-run
    oracles read these records; :attr:`sends` expands them to one
    envelope per recipient for whoever wants that view.

    The recorder is the network's send hook (see
    :meth:`Network.add_send_hook`): a broadcast to ``k`` recipients costs
    it one ``append`` and one count bump.  Decisions are recorded one by
    one; a caller waiting for a set of processes to decide
    (:meth:`await_decisions`) is handed a set that shrinks as they do.
    """

    def __init__(self, network: Optional[Network] = None) -> None:
        self.fan_outs: List[FanOut] = []
        self.decisions: List[Decision] = []
        self._decided_by: Dict[ProcessId, Decision] = {}
        self._type_counts: Dict[str, int] = {}
        #: The pids :meth:`await_decisions` is waiting on that have not
        #: decided yet; :meth:`record_decision` shrinks it.
        self._awaited: Set[ProcessId] = set()
        if network is not None:
            network.add_send_hook(self._record_send)

    def _record_send(self, record: FanOut) -> None:
        """The network's send hook: one call per fan-out (one payload)."""
        self.fan_outs.append(record)
        name = type(record.payload).__name__
        counts = self._type_counts
        counts[name] = counts.get(name, 0) + len(record.dsts)

    @property
    def sends(self) -> List[Envelope]:
        """One envelope per recipient of every recorded fan-out, in send
        order — a view built on each read, not what the run keeps."""
        return [env for record in self.fan_outs for env in record.envelopes()]

    # ------------------------------------------------------------------
    # Decision bookkeeping
    # ------------------------------------------------------------------

    def record_decision(self, pid: ProcessId, value: Any, time: float) -> None:
        """Record a decision.  Re-deciding the same value is a no-op; a
        correct process deciding twice with different values is an error."""
        previous = self._decided_by.get(pid)
        if previous is not None:
            if previous.value != value:
                raise ConsistencyViolation(
                    f"process {pid} decided {previous.value!r} then {value!r}"
                )
            return
        decision = Decision(pid=pid, value=value, time=time)
        self._decided_by[pid] = decision
        self.decisions.append(decision)
        self._awaited.discard(pid)

    def decision_of(self, pid: ProcessId) -> Optional[Decision]:
        return self._decided_by.get(pid)

    def decided_values(self, pids: Optional[Tuple[ProcessId, ...]] = None) -> set:
        """Distinct values decided by ``pids`` (default: everyone recorded)."""
        if pids is None:
            return {d.value for d in self.decisions}
        return {
            d.value for pid, d in self._decided_by.items() if pid in pids
        }

    def all_decided(self, pids) -> bool:
        return all(pid in self._decided_by for pid in pids)

    def await_decisions(self, pids: Iterable[ProcessId]) -> Set[ProcessId]:
        """The live set of ``pids`` still undecided: each is removed as
        its decision is recorded, so "has everyone decided?" is ``not
        awaited`` rather than an :meth:`all_decided` scan per event.  One
        waiter at a time — a later call replaces the set being shrunk."""
        self._awaited = {pid for pid in pids if pid not in self._decided_by}
        return self._awaited

    def check_agreement(self, correct_pids) -> Any:
        """Assert all ``correct_pids`` that decided agree; return the value."""
        values = {
            self._decided_by[pid].value
            for pid in correct_pids
            if pid in self._decided_by
        }
        if len(values) > 1:
            raise ConsistencyViolation(
                f"correct processes decided different values: {values!r}"
            )
        return next(iter(values)) if values else None

    def decision_times(self, pids) -> Dict[ProcessId, float]:
        return {
            pid: self._decided_by[pid].time
            for pid in pids
            if pid in self._decided_by
        }

    def latest_decision_time(self, pids) -> Optional[float]:
        # Materialize once: ``pids`` may be a generator, and iterating it
        # for decision_times() would exhaust it before the completeness
        # check below (which would then pass vacuously on len 0).
        pids = tuple(pids)
        times = self.decision_times(pids)
        if len(times) < len(pids):
            return None
        return max(times.values()) if times else None

    # ------------------------------------------------------------------
    # Message accounting
    # ------------------------------------------------------------------

    def message_count(self) -> int:
        """Messages sent: the recipients of every recorded fan-out."""
        return sum(self._type_counts.values())

    def messages_by_type(self) -> Dict[str, int]:
        """Histogram of payload class names across all messages sent,
        bumped by the send hook once per fan-out."""
        return dict(self._type_counts)


def message_delays(decision_time: float, delta: float) -> int:
    """Convert an absolute decision time into a message-delay count.

    Under the round-synchronous schedule a decision at ``k * delta`` was
    reached after exactly ``k`` message delays.  Times that do not fall on
    a round boundary are rounded up (the decision needed the delivery that
    started the enclosing round).
    """
    if decision_time < 0:
        raise ValueError("decision_time must be >= 0")
    steps = decision_time / delta
    rounded = round(steps)
    if math.isclose(steps, rounded, abs_tol=1e-9):
        return int(rounded)
    return int(math.ceil(steps))
