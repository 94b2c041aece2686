"""Execution traces: who sent what when, who decided what when.

The paper's headline metric is *common-case latency measured in message
delays*.  With the round-synchronous delay model every hop costs exactly
``DELTA``, so a decision at time ``k * DELTA`` is a ``k``-step decision.
:func:`message_delays` performs that conversion; :class:`TraceRecorder`
captures the raw material: every decision, and per payload type how many
messages and bytes were sent.  Sends are not kept — the recorder hashes
each one into the trace digest's stream as it is sent and counts it, so
what a run holds does not grow with the number of messages it sends.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .network import FanOut, Network, ProcessId

__all__ = [
    "Decision",
    "TraceRecorder",
    "message_delays",
    "ConsistencyViolation",
]


#: The digest's records (defined in :mod:`repro.sim.digest`): a name
#: record's head, and a send row as a fan-out's shared head and the tail
#: that differs per recipient.
_NAME_HEAD = struct.Struct("<cI").pack
_SEND_HEAD = struct.Struct("<cqIqd").pack
_SEND_TAIL = struct.Struct("<qd").pack


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

    The recorder is the network's send hook (see
    :meth:`Network.add_send_hook`) and keeps nothing per send: each
    :class:`~repro.sim.network.FanOut` is counted into the per-type
    ``[messages, bytes]`` totals and hashed into :attr:`send_hash` — one
    fixed-width send row per recipient, after a name record on the first
    send of a payload type (the byte stream is defined in
    :mod:`repro.sim.digest`) — and then dropped.
    :func:`~repro.sim.digest.trace_digest` finalizes a copy of that
    hash, so a long run costs the same memory as a short one.  A
    reader that needs whole records attaches its own hook (for example
    ``network.add_send_hook(records.append)``) before the run.

    Decisions are recorded one by one; a caller waiting for a set of
    processes to decide (:meth:`await_decisions`) is handed a set that
    shrinks as they do.
    """

    def __init__(self, network: Optional[Network] = None) -> None:
        #: SHA-256 over the name records and send rows so far, in order.
        self.send_hash = hashlib.sha256()
        self.decisions: List[Decision] = []
        self._decided_by: Dict[ProcessId, Decision] = {}
        #: Payload class name -> ``[type index, messages, bytes]`` so far.
        self._type_totals: Dict[str, List[int]] = {}
        #: The pids :meth:`await_decisions` is waiting on that have not
        #: decided yet; :meth:`record_decision` shrinks it.
        self._awaited: Set[ProcessId] = set()
        if network is not None:
            network.add_send_hook(self.record_send)

    def record_send(self, record: FanOut) -> None:
        """The network's send hook: one call per fan-out (one payload),
        one send row per recipient hashed per call."""
        src, dsts, payload, send_time, deliver_times, size = record
        k = len(dsts)
        if not k:
            return  # no recipient, no row (the network hooks none)
        name = type(payload).__name__
        by_type = self._type_totals
        totals = by_type.get(name)
        if totals is None:
            totals = by_type[name] = [len(by_type), 0, 0]
            encoded = name.encode()
            self.send_hash.update(_NAME_HEAD(b"n", len(encoded)) + encoded)
        totals[1] += k
        totals[2] += k * size
        head = _SEND_HEAD(b"s", src, totals[0], size, send_time)
        self.send_hash.update(
            head + head.join(map(_SEND_TAIL, dsts, deliver_times))
        )

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

    def traffic_by_type(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """``(messages, bytes)`` sent per payload class name, bumped by
        the send hook once per fan-out; a message's bytes are the size
        the network accounted for it."""
        by_type = self._type_totals
        return (
            dict(zip(by_type, map(itemgetter(1), by_type.values()))),
            dict(zip(by_type, map(itemgetter(2), by_type.values()))),
        )

    def messages_by_type(self) -> Dict[str, int]:
        """Histogram of payload class names across all messages sent."""
        return self.traffic_by_type()[0]


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
