"""Flight recorder: the run's one bounded, causal event record.

A :class:`FlightRecorder` watches a run through two seams and nothing
else.  Installed in the network's tracer slot
(:meth:`~repro.sim.network.Network.install_tracer`, with the selective
``wants`` hook) it records every *protocol* message of all five
protocols and the SMR layer — propose, vote, view-vote, wish,
cert-request, request/reply, decide gossip, checkpoint and demotion
votes, catchup — once when sent and once when delivered, threading the
send's id through the (defaulted, digest-invisible) ``trace`` field of
the :class:`~repro.sim.network.Envelope`.  Subscribed to the cluster's
observer (:meth:`~repro.sim.runner.Cluster.observe`, through
:meth:`FlightRecorder.observe`) it records the *local* transitions:
decide, view-change, WAL append/truncate, checkpoint vote/stable,
demotion vote/demotion/advocate, and fault-schedule firings.

The record is a bounded ring (``collections.deque`` with ``maxlen``)
of :class:`FlightEvent` named tuples, so a long run keeps the tail and
allocation cost stays one tuple per recorded event; the side tables
that wait for a quorum hold only ids still in the ring.

A message's event kind and view come from the process message tables
(:data:`repro.sim.process.MESSAGE_FACTS`), so this module imports no
protocol package.  Across protocols: what a leader sends to start an
attempt is a ``propose``, what is counted toward a deciding quorum a
``vote`` (so a ``cert-formed`` parents to it), what reports state to a
new leader a ``view-vote``; an SMR ``SlotMessage`` is recorded as its
inner message.  Payload types no table declares are *not* recorded,
and — via the network's ``wants`` memo — do not even leave the prebound
delivery fast path, so an attached recorder costs near-nothing on
traffic it ignores.

Causality is multi-parent:

* a **deliver** parents to its **send**, a send (and any local
  transition) to the handler execution (delivery) it happened in;
* a **decide** parents to a synthesized **cert-formed** event whose
  parents are the delivered votes that formed the quorum certificate;
* a **checkpoint-stable** parents to the checkpoint votes that made it
  stable, a **wal-truncate** to the checkpoint-stable that justified it,
  a **wal-append** to the decide it persists;
* a **demotion** parents to the demotion-vote quorum, and the
  **advocate** calls it triggers parent to the demotion.

Dump with :meth:`FlightRecorder.dump` (JSON lines: one header object,
then one event per line) and analyse with ``python -m
repro.postmortem``; :meth:`FlightRecorder.to_dict` is the same record
as one JSON document (the CLIs' ``--trace-out``).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Tuple

from ..sim.process import MESSAGE_FACTS

__all__ = ["FlightEvent", "FlightRecorder"]


class FlightEvent(NamedTuple):
    """One recorded protocol event.

    ``phase`` is ``send``/``deliver`` for network events and ``local``
    for state transitions; ``parents`` are the ids of the events that
    caused this one (empty for roots).  ``slot``/``view`` are taken
    from the payload when it carries them, ``None`` otherwise (e.g.
    single-instance consensus runs have no slots; a Paxos ballot is
    read as the view).
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


#: Local event a quorum produces -> the vote kind it is a quorum of.
#: Votes wait in a side table, keyed by (kind, receiver, slot, view),
#: for that event to claim them as parents.
_VOTE_OF: Dict[str, str] = {
    "decide": "vote",
    "checkpoint-stable": "checkpoint-vote",
    "demotion": "demotion-vote",
}
_VOTE_KINDS = frozenset(_VOTE_OF.values())

#: Local kind -> the local kind it follows on the same process (its
#: parent, when there has been one).
_FOLLOWS: Dict[str, str] = {
    "wal-append": "decide",
    "wal-truncate": "checkpoint-stable",
    "advocate": "demotion",
}

#: Observer kinds that are request accounting — the metrics' business,
#: not part of the causal record.
_METRICS_ONLY = frozenset(("request", "batched", "executed", "slot-latency"))

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
        self._reset_causality()

    def _reset_causality(self) -> None:
        #: Active handler-execution stack (deliver event ids): sends and
        #: local transitions inside a handler parent to its delivery.
        self._spans: List[int] = []
        #: (vote kind, pid, slot, view) -> delivered (or own) vote event
        #: ids awaiting the event their quorum produces; consensus votes
        #: of every view wait together (view ``None``) for the slot's
        #: decide.  Ids leave with their event when the ring evicts it
        #: (:meth:`_emit`), so the table never holds more than
        #: ``capacity`` of them.
        self._waiting: Dict[Tuple[Any, ...], List[int]] = {}
        #: (pid, local kind) -> that process's latest such event.
        self._latest: Dict[Tuple[int, str], int] = {}

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def wants(self, ptype: type) -> bool:
        """Selective-tracer hook: payload types the recorder captures.

        The network memoizes the verdict per type; a ``False`` keeps
        that type's sends on the untraced fast path entirely.
        """
        return ptype in MESSAGE_FACTS

    def _classify(
        self, payload: Any
    ) -> Optional[Tuple[str, Optional[int], Optional[int]]]:
        """(kind, slot, view) for a protocol payload, else ``None``."""
        facts = MESSAGE_FACTS.get(type(payload))
        if facts is None:
            return None
        if facts.kind == "inner":
            slot = payload.slot
            payload = payload.inner
            facts = MESSAGE_FACTS.get(type(payload))
            if facts is None or facts.kind == "inner":
                return None
        else:
            slot = getattr(payload, "slot", None)
        view = None if facts.view is None else getattr(payload, facts.view)
        return facts.kind, slot, view

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
        events = self.events
        if self.emitted >= self.capacity:
            # The append below evicts the oldest event; an id that has
            # left the ring cannot be a resolvable parent, so it stops
            # waiting for its quorum too (ids wait in emission order).
            old = events[0]
            if old.kind in _VOTE_KINDS and old.phase != "send":
                key = (
                    old.kind, old.pid, old.slot,
                    None if old.kind == "vote" else old.view,
                )
                waiting = self._waiting.get(key)
                if waiting and waiting[0] == old.id:
                    del waiting[0]
                    if not waiting:
                        del self._waiting[key]
        events.append(
            FlightEvent(eid, parents, kind, phase, time, pid, peer, slot, view, detail)
        )
        self.emitted += 1
        return eid

    @property
    def dropped(self) -> int:
        return self.emitted - len(self.events)

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
        dst = envelope.dst
        eid = self._emit(
            kind, "deliver", envelope.deliver_time, dst, envelope.src,
            slot, view, None, () if trace is None else (trace,),
        )
        if kind in _VOTE_KINDS:
            key = (kind, dst, slot, None if kind == "vote" else view)
            self._waiting.setdefault(key, []).append(eid)
        self._spans.append(eid)
        return eid

    def end_delivery(self, token: int) -> None:
        if token and self._spans and self._spans[-1] == token:
            self._spans.pop()

    # ------------------------------------------------------------------
    # Local transitions (the cluster's observer: Cluster.observe)
    # ------------------------------------------------------------------

    def observe(
        self,
        kind: str,
        pid: int,
        time: float,
        slot: Optional[int] = None,
        view: Optional[int] = None,
        detail: Any = None,
    ) -> None:
        """Record one local transition, as :meth:`~repro.sim.runner.
        Cluster.observe` reports it; the metrics' kinds are ignored.

        A ``decide`` (``detail``: the value) first synthesizes a
        ``cert-formed`` event over the votes delivered to ``pid`` for
        the slot — the quorum certificate's evidence — and parents to
        it, so a decide's causal cut holds the exact vote deliveries
        (and transitively their sends) behind it.  ``checkpoint-stable``
        and ``demotion`` claim their vote quorums the same way;
        ``checkpoint-vote`` / ``demotion-vote`` are the process's *own*
        vote (broadcasts exclude self, so the local tally has no network
        event to stand in for it).  Fault firings happen outside any
        handler, which makes them causal roots.
        """
        if kind in _METRICS_ONLY:
            return
        parents = self._span_parents()
        if kind in _VOTE_OF:
            votes = tuple(self._waiting.pop((_VOTE_OF[kind], pid, slot, view), ()))
            count = f"{len(votes)} votes" if votes else None
            if kind != "decide":
                detail, parents = count, votes
            else:
                detail = repr(detail)[:_DETAIL_CAP]
                if votes:
                    cert = self._emit(
                        "cert-formed", "local", time, pid, None, slot, None,
                        count, votes,
                    )
                    parents = (cert, *parents)
        elif kind in _FOLLOWS:
            followed = self._latest.get((pid, _FOLLOWS[kind]))
            if followed is not None:
                parents = (followed,)
            if kind == "wal-truncate":
                detail = f"upto {slot}"
        elif kind in _VOTE_KINDS:
            detail = "own vote"
        eid = self._emit(kind, "local", time, pid, None, slot, view, detail, parents)
        if kind in _VOTE_OF:
            self._latest[pid, kind] = eid
        elif kind in _VOTE_KINDS:
            self._waiting.setdefault((kind, pid, slot, view), []).append(eid)

    # ------------------------------------------------------------------
    # Run metadata
    # ------------------------------------------------------------------

    def begin_run(self, **meta: Any) -> None:
        """A new run starts: its causality shares nothing with the last
        one's (a recorder may watch many runs; the ring keeps filling)."""
        self.meta.update(meta)
        self._reset_causality()

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

    def to_dict(self) -> Dict[str, Any]:
        """The record as one JSON-safe document: the header's fields
        plus ``events`` (what the CLIs' ``--trace-out`` writes)."""
        return {**self.header(), "events": self.to_dicts()}

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
