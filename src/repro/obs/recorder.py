"""Flight recorder: bounded structured protocol-event capture.

A :class:`FlightRecorder` installed on a
:class:`~repro.sim.network.Network` (it implements the same tracer
contract as :class:`~repro.obs.tracing.CausalTracer`, plus the
selective ``wants`` hook) records *protocol* events — propose, vote,
certificate-formed, decide, view-change, WAL append/truncate,
checkpoint vote/stable, catchup request/reply, demotion vote, fault
schedule firings — each with a tuple of causal parent ids threaded
through the (defaulted, digest-invisible) ``trace`` field of every
:class:`~repro.sim.network.Envelope`.

The record is a bounded ring (``collections.deque`` with ``maxlen``)
of :class:`FlightEvent` named tuples, so a long run keeps the tail and
allocation cost stays one tuple per recorded event.  Payload types the
classifier does not know are *not* recorded, and — via the network's
``wants`` memo — do not even leave the prebound delivery fast path, so
an attached recorder costs near-nothing on traffic it ignores.

Causality is richer than the tracer's single-parent chain:

* a **deliver** parents to its **send**, a send parents to the handler
  execution (delivery) it was issued from;
* a **decide** parents to a synthesized **cert-formed** event whose
  parents are the delivered votes that formed the quorum certificate;
* a **checkpoint-stable** parents to the checkpoint votes that made it
  stable, a **wal-truncate** to the checkpoint-stable that justified it;
* a **demotion** parents to the demotion-vote quorum, and the
  **advocate** calls it triggers parent to the demotion.

Dump with :meth:`FlightRecorder.dump` (JSON lines: one header object,
then one event per line); analyse with ``python -m repro.postmortem``.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Tuple

__all__ = [
    "FlightEvent",
    "FlightRecorder",
    "TeeTracer",
    "attach_observers",
    "hook_view_changes",
]


class FlightEvent(NamedTuple):
    """One recorded protocol event.

    ``phase`` is ``send``/``deliver`` for network events and ``local``
    for state transitions; ``parents`` are the ids of the events that
    caused this one (empty for roots).  ``slot``/``view`` are taken
    from the payload when it carries them, ``None`` otherwise (e.g.
    single-instance consensus runs have no slots).
    """

    id: int
    parents: Tuple[int, ...]
    kind: str
    phase: str
    time: float
    pid: int
    peer: Optional[int]
    slot: Optional[int]
    view: Optional[int]
    detail: Optional[str]


#: Protocol payload type name -> recorded event kind.  Classification is
#: by *name* so this module never imports the protocol packages (the
#: network would otherwise pull in smr/storage at import time).
_KIND_BY_NAME: Dict[str, str] = {
    "Propose": "propose",
    "Ack": "vote",
    "AckSig": "vote",
    "Commit": "vote",
    "CertAck": "vote",
    "CertRequest": "cert-request",
    "Vote": "view-vote",
    "WishMessage": "wish",
    "Request": "request",
    "Reply": "reply",
    "SlotDecided": "decide-gossip",
    "CheckpointVote": "checkpoint-vote",
    "CatchupRequest": "catchup-request",
    "CatchupReply": "catchup-reply",
    "DemotionVote": "demotion-vote",
}

#: Marker for SMR's slot-tagged wrapper: classified by its inner payload.
_SLOT_WRAP = "slot-wrap"

_MISS = object()

#: Maximum ``repr`` length kept in an event's ``detail`` field.
_DETAIL_CAP = 80


class FlightRecorder:
    """Bounded recorder of causally-linked :class:`FlightEvent` streams."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"recorder capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.events: Deque[FlightEvent] = deque(maxlen=capacity)
        #: Total events emitted (``emitted - len(events)`` were dropped).
        self.emitted = 0
        #: Run metadata (scenario name, protocol, n/f, verdicts, ...)
        #: accumulated by :meth:`begin_run` / :meth:`finish_run`.
        self.meta: Dict[str, Any] = {}
        self._next_id = 1
        #: Active handler-execution stack (deliver event ids): sends and
        #: local transitions inside a handler parent to its delivery.
        self._spans: List[int] = []
        #: type -> kind / _SLOT_WRAP / None (memoized classification).
        self._kind_memo: Dict[type, Optional[str]] = {}
        #: (pid, slot) -> delivered consensus-vote event ids awaiting the
        #: decide that their quorum certificate produces.
        self._votes: Dict[Tuple[int, Optional[int]], List[int]] = {}
        #: (pid, slot) -> checkpoint-vote event ids awaiting stability.
        self._ckpt_votes: Dict[Tuple[int, int], List[int]] = {}
        #: (pid, view) -> demotion-vote event ids awaiting the quorum.
        self._demotion_votes: Dict[Tuple[int, int], List[int]] = {}
        #: pid -> the latest demotion event (advocates parent to it).
        self._last_demotion: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def _kind_of_type(self, ptype: type) -> Optional[str]:
        kind = self._kind_memo.get(ptype, _MISS)
        if kind is _MISS:
            name = ptype.__name__
            kind = _SLOT_WRAP if name == "SlotMessage" else _KIND_BY_NAME.get(name)
            self._kind_memo[ptype] = kind
        return kind  # type: ignore[return-value]

    def wants(self, ptype: type) -> bool:
        """Selective-tracer hook: payload types the recorder captures.

        The network memoizes the verdict per type; a ``False`` keeps
        that type's sends on the untraced fast path entirely.
        """
        return self._kind_of_type(ptype) is not None

    def _classify(
        self, payload: Any
    ) -> Optional[Tuple[str, Optional[int], Optional[int]]]:
        """(kind, slot, view) for a protocol payload, else ``None``."""
        kind = self._kind_of_type(type(payload))
        if kind is None:
            return None
        if kind is _SLOT_WRAP:
            inner = payload.inner
            ikind = self._kind_of_type(type(inner))
            if ikind is None or ikind is _SLOT_WRAP:
                return None
            return ikind, payload.slot, getattr(inner, "view", None)
        return kind, getattr(payload, "slot", None), getattr(payload, "view", None)

    # ------------------------------------------------------------------
    # Core emission
    # ------------------------------------------------------------------

    def _emit(
        self,
        kind: str,
        phase: str,
        time: float,
        pid: int,
        peer: Optional[int],
        slot: Optional[int],
        view: Optional[int],
        detail: Optional[str],
        parents: Tuple[int, ...],
    ) -> int:
        eid = self._next_id
        self._next_id += 1
        self.events.append(
            FlightEvent(eid, parents, kind, phase, time, pid, peer, slot, view, detail)
        )
        self.emitted += 1
        return eid

    @property
    def dropped(self) -> int:
        return self.emitted - len(self.events)

    def current_span(self) -> Optional[int]:
        return self._spans[-1] if self._spans else None

    def _span_parents(self) -> Tuple[int, ...]:
        return (self._spans[-1],) if self._spans else ()

    # ------------------------------------------------------------------
    # Network tracer contract (Network._send_general / Network._deliver)
    # ------------------------------------------------------------------

    def on_send(self, envelope: Any) -> Any:
        info = self._classify(envelope.payload)
        if info is None:
            return envelope
        kind, slot, view = info
        eid = self._emit(
            kind, "send", envelope.send_time, envelope.src, envelope.dst,
            slot, view, None, self._span_parents(),
        )
        return envelope._replace(trace=eid)

    def begin_delivery(self, envelope: Any) -> int:
        info = self._classify(envelope.payload)
        if info is None:
            return 0  # unwanted payload on the general path: no record
        kind, slot, view = info
        trace = envelope.trace
        parents = (trace,) if isinstance(trace, int) else ()
        dst = envelope.dst
        eid = self._emit(
            kind, "deliver", envelope.deliver_time, dst, envelope.src,
            slot, view, None, parents,
        )
        if kind == "vote":
            self._votes.setdefault((dst, slot), []).append(eid)
        elif kind == "checkpoint-vote":
            self._ckpt_votes.setdefault((dst, slot), []).append(eid)
        elif kind == "demotion-vote":
            self._demotion_votes.setdefault((dst, view), []).append(eid)
        self._spans.append(eid)
        return eid

    def end_delivery(self, token: int) -> None:
        if token and self._spans and self._spans[-1] == token:
            self._spans.pop()

    # ------------------------------------------------------------------
    # Local protocol transitions (replica / cluster hooks)
    # ------------------------------------------------------------------

    def record_decide(
        self, pid: int, value: Any, time: float, slot: Optional[int] = None
    ) -> int:
        """A process decided ``value``.

        Synthesizes a ``cert-formed`` event over the votes delivered to
        ``pid`` for this slot (the quorum certificate's evidence), then
        the ``decide`` parented to it — the causal cut of a decide
        therefore contains the exact vote deliveries (and transitively
        their sends) that produced the certificate.
        """
        parents: List[int] = []
        votes = self._votes.pop((pid, slot), None)
        if votes:
            cert = self._emit(
                "cert-formed", "local", time, pid, None, slot, None,
                f"{len(votes)} votes", tuple(votes),
            )
            parents.append(cert)
        parents.extend(self._span_parents())
        return self._emit(
            "decide", "local", time, pid, None, slot, None,
            repr(value)[:_DETAIL_CAP], tuple(parents),
        )

    def record_view_change(
        self, pid: int, view: int, time: float, slot: Optional[int] = None
    ) -> int:
        return self._emit(
            "view-change", "local", time, pid, None, slot, view, None,
            self._span_parents(),
        )

    def record_wal_append(
        self,
        pid: int,
        slot: Optional[int],
        what: str,
        time: float,
        parent: Optional[int] = None,
    ) -> int:
        parents = (parent,) if parent is not None else self._span_parents()
        return self._emit(
            "wal-append", "local", time, pid, None, slot, None, what, parents
        )

    def record_wal_truncate(
        self, pid: int, upto_slot: int, time: float, parent: Optional[int] = None
    ) -> int:
        parents = (parent,) if parent is not None else self._span_parents()
        return self._emit(
            "wal-truncate", "local", time, pid, None, upto_slot, None,
            f"upto {upto_slot}", parents,
        )

    def record_checkpoint_vote_local(self, pid: int, slot: int, time: float) -> int:
        """Our own checkpoint vote (broadcasts exclude self, so the
        local tally has no network event to stand in for it)."""
        eid = self._emit(
            "checkpoint-vote", "local", time, pid, None, slot, None, "own vote",
            self._span_parents(),
        )
        self._ckpt_votes.setdefault((pid, slot), []).append(eid)
        return eid

    def record_checkpoint_stable(self, pid: int, slot: int, time: float) -> int:
        votes = self._ckpt_votes.pop((pid, slot), None)
        return self._emit(
            "checkpoint-stable", "local", time, pid, None, slot, None,
            f"{len(votes)} votes" if votes else None, tuple(votes or ()),
        )

    def record_demotion_vote_local(self, pid: int, view: int, time: float) -> int:
        """Our own demotion vote (same include_self=False reasoning)."""
        eid = self._emit(
            "demotion-vote", "local", time, pid, None, None, view, "own vote",
            self._span_parents(),
        )
        self._demotion_votes.setdefault((pid, view), []).append(eid)
        return eid

    def record_demotion(self, pid: int, view: int, time: float) -> int:
        votes = self._demotion_votes.pop((pid, view), None)
        eid = self._emit(
            "demotion", "local", time, pid, None, None, view,
            f"{len(votes)} votes" if votes else None, tuple(votes or ()),
        )
        self._last_demotion[pid] = eid
        return eid

    def record_advocate(
        self, pid: int, view: int, time: float, slot: Optional[int] = None
    ) -> int:
        demotion = self._last_demotion.get(pid)
        parents = (demotion,) if demotion is not None else self._span_parents()
        return self._emit(
            "advocate", "local", time, pid, None, slot, view, None, parents
        )

    def record_fault(
        self, kind: str, time: float, pid: int = -1, detail: Optional[str] = None
    ) -> int:
        """A fault-schedule firing (crash/recover/partition-start/
        partition-heal/delay-on/delay-off), recorded as a causal root."""
        return self._emit(kind, "local", time, pid, None, None, None, detail, ())

    # ------------------------------------------------------------------
    # Run metadata
    # ------------------------------------------------------------------

    def begin_run(self, **meta: Any) -> None:
        self.meta.update(meta)

    def finish_run(self, **meta: Any) -> None:
        self.meta.update(meta)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def header(self) -> Dict[str, Any]:
        return {
            "flight": 1,
            "capacity": self.capacity,
            "emitted": self.emitted,
            "dropped": self.dropped,
            "meta": self.meta,
        }

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [
            {**event._asdict(), "parents": list(event.parents)}
            for event in self.events
        ]

    def dumps(self) -> str:
        """The JSON-lines dump: header object, then one event per line.

        Contains no wall-clock timestamps or machine identity, so two
        runs of the same schedule (on any machine) produce
        byte-identical dumps — exactly what ``postmortem diff`` needs.
        """
        lines = [json.dumps(self.header(), sort_keys=True, default=str)]
        lines.extend(
            json.dumps(event, sort_keys=True, default=str)
            for event in self.to_dicts()
        )
        return "\n".join(lines) + "\n"

    def dump(self, path: Any) -> None:
        """Write the JSON-lines dump to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())


class TeeTracer:
    """Fan one network tracer slot out to several observers.

    The network supports a single installed tracer; attaching a
    :class:`~repro.obs.tracing.CausalTracer` *and* a
    :class:`FlightRecorder` therefore goes through this tee.  Each
    observer gets its own trace id threaded per envelope (the ``trace``
    field carries a tuple, one slot per observer); ``wants`` is the
    union, so an envelope is traced when any observer records it.
    """

    def __init__(self, *tracers: Any) -> None:
        if not tracers:
            raise ValueError("TeeTracer needs at least one tracer")
        self.tracers: Tuple[Any, ...] = tuple(tracers)

    def _wants(self, tracer: Any, ptype: type) -> bool:
        wants = getattr(tracer, "wants", None)
        return True if wants is None else bool(wants(ptype))

    def wants(self, ptype: type) -> bool:
        return any(self._wants(tracer, ptype) for tracer in self.tracers)

    def on_send(self, envelope: Any) -> Any:
        ptype = type(envelope.payload)
        traces = tuple(
            tracer.on_send(envelope).trace
            if self._wants(tracer, ptype)
            else None
            for tracer in self.tracers
        )
        return envelope._replace(trace=traces)

    def begin_delivery(self, envelope: Any) -> Tuple[Any, ...]:
        trace = envelope.trace
        if not isinstance(trace, tuple) or len(trace) != len(self.tracers):
            trace = (None,) * len(self.tracers)
        return tuple(
            tracer.begin_delivery(envelope._replace(trace=trace[i]))
            for i, tracer in enumerate(self.tracers)
        )

    def end_delivery(self, token: Tuple[Any, ...]) -> None:
        for tracer, sub in zip(reversed(self.tracers), reversed(token)):
            tracer.end_delivery(sub)

    def record_decide(self, pid: int, value: Any, time: float) -> None:
        for tracer in self.tracers:
            record = getattr(tracer, "record_decide", None)
            if record is not None:
                record(pid, value, time)


def attach_observers(cluster: Any, *observers: Any) -> Optional[Any]:
    """Wire tracers/recorders into a :class:`~repro.sim.runner.Cluster`.

    ``None`` entries are skipped; one observer installs directly, more
    go through a :class:`TeeTracer`.  Like
    :func:`~repro.obs.tracing.attach_tracer`, the cluster trace's
    ``record_decision`` is shadowed observer-first, so a violating
    decide is captured *before* the consistency oracle raises.
    Returns the installed tracer (or ``None`` when nothing to attach).
    """
    active = [observer for observer in observers if observer is not None]
    if not active:
        return None
    tracer = active[0] if len(active) == 1 else TeeTracer(*active)
    cluster.network.install_tracer(tracer)
    trace = cluster.trace
    original = trace.record_decision

    def record_decision(pid: int, value: Any, time: float) -> None:
        for observer in active:
            record = getattr(observer, "record_decide", None)
            if record is not None:
                record(pid, value, time)
        original(pid, value, time)

    trace.record_decision = record_decision  # type: ignore[method-assign]
    return tracer


def hook_view_changes(recorder: FlightRecorder, process: Any) -> None:
    """Record a bare consensus instance's view entries (consensus-mode
    scenarios; SMR replicas hook their per-slot instances themselves).

    Wraps ``enter_view`` and repoints the pacemaker's captured
    reference, mirroring ``SMRReplica._hook_view_changes``.
    """
    inner = getattr(process, "enter_view", None)
    if inner is None:
        return

    def recording_enter_view(view: int) -> None:
        if view > getattr(process, "view", 0):
            recorder.record_view_change(process.pid, view, process.now)
        inner(view)

    process.enter_view = recording_enter_view
    pacemaker = getattr(process, "pacemaker", None)
    if pacemaker is not None and hasattr(pacemaker, "_enter_view"):
        pacemaker._enter_view = recording_enter_view
