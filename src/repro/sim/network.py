"""Simulated point-to-point network with pluggable delay models.

The paper assumes reliable, authenticated channels in a *partially
synchronous* system: there is a bound ``DELTA`` on message delay that holds
from some unknown global stabilization time (GST) onward.  This module
models exactly that:

* :class:`SynchronousDelay` — every message takes a fixed delay (the
  "common case" the paper's latency claims are about).
* :class:`RoundSynchronousDelay` — messages sent in round ``i`` (the
  interval ``[(i-1)*DELTA, i*DELTA)``) are delivered exactly at ``i*DELTA``.
  This is the schedule used throughout Section 4's lower-bound executions.
* :class:`PartialSynchronyDelay` — before GST delays are drawn from an
  adversary-friendly distribution (bounded, so channels stay reliable);
  after GST every delay is at most ``DELTA``.
* :class:`RandomDelay` — random delays for latency benchmarks.

An :class:`Interceptor` hook lets an adversary re-time (but never forge,
modify, or drop) individual messages, which is how the lower-bound splice
executions steer deliveries.

On top of the raw interceptor the network offers two first-class,
declarative fault primitives (used by the scenario engine in
:mod:`repro.scenarios` and available to tests directly):

* :class:`DelayRule` — a named, matchable re-timing rule (``set_delay_rule``
  / ``clear_delay_rule``): messages matching on source, destination and/or
  payload type are delayed by a fixed extra amount or held until an
  absolute time.  This is the indy-plenum ``delay_rules`` idiom.
* partitions (``start_partition`` / ``heal_partition``) — messages crossing
  the current partition are *held* (never dropped: channels stay reliable)
  and released when the partition heals, re-timed by the delay model.

The transport itself is the hottest code in the repository, and the
protocols it carries are all-to-all, so its unit of work *and of record*
is the **fan-out**: one payload from one source to ``k`` recipients.
:meth:`Network.send` is a fan-out of one, :meth:`Network.broadcast` a
fan-out over a declared **group** (the whole network, by default),
and both go through the one send path, ``_send_general``, which leaves
one :class:`FanOut` behind:
``(src, dsts, payload, send_time, deliver_times, size)``, ``dsts`` and
``deliver_times`` parallel.  The send hooks see that record as it is
sent — the trace recorder hashes and counts it, the scenario runner's
audits tally it — and the network keeps none: a reader that wants the
records of a run appends them from a hook of its own.

A group (:meth:`Network.group`) is a sorted pid tuple declared once,
such as an SMR deployment's replicas, whose broadcasts must not reach
its clients.  Its members are checked against the registry when it is
declared, and a member's ``include_self=False`` tuple is built on its
first such broadcast.  So a group broadcast filters and checks nothing
per call (a send checks its one destination).  The whole network is
the group of every registered pid (:attr:`Network.process_ids`),
declared anew after each registration; a process is never
unregistered, so a declared group stays valid.

Done **once per fan-out**: the payload's size (memoized by object
identity — per node of the walk, so a value embedded
in many messages is sized once — through the network's bounded
:class:`repro._core.IdentityMemo`), the clock read, the single ``_slow``
flag that stands for all re-timing machinery (rules, interceptor,
partition), the tracer's per-type verdict, the rule lookup, the
``NetworkStats`` update (``messages_sent += k``, ``bytes_sent += k *
size``), the :class:`FanOut`, one call of each send hook with it, and
one :meth:`Simulator.post_many` that queues every delivery.

Left **per recipient**, in recipient order: the delay model's draw (so a
seeded model draws exactly as ``k`` separate sends would) and the queue
entry.  The entry *is* the delivery: the simulator queues the network's
delivery function with that recipient's ``(dst, src, payload)`` beside
it and the run loop calls it — no ``functools.partial``, no closure, no
label — under the same consecutive ``(time, seq)`` keys separate sends
would get.  When nothing re-times or stamps the message that is all: no
:class:`Envelope` is built.  Only when a delay rule, the interceptor, a
partition or the tracer is going to look at one is an :class:`Envelope`
built per recipient, re-timed, stamped, held if it crosses the partition
(individually; the others are posted, ``(envelope,)`` being the queue
entry's arguments when the tracer needs it back at delivery), and the
:class:`FanOut` then carries their final delivery times.  A fan-out is
therefore indistinguishable from its ``k`` sends in every delivery,
counter and digest row; it is also atomic — nothing is accounted,
hooked, held or queued until every delivery time exists, so a bad
destination or delay cannot leave half a broadcast behind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from random import Random
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from .. import _core
from .._core import payload_size
from .events import Simulator

__all__ = [
    "DEFAULT_DELTA",
    "DelayModel",
    "SynchronousDelay",
    "RoundSynchronousDelay",
    "PartialSynchronyDelay",
    "RandomDelay",
    "DelayRule",
    "Envelope",
    "FanOut",
    "Interceptor",
    "Network",
    "NetworkStats",
    "payload_size",
]

#: Default synchrony bound used across examples and benchmarks (arbitrary
#: simulated time units; think "milliseconds").
DEFAULT_DELTA = 1.0

ProcessId = int

_INF = math.inf


class DelayModel(Protocol):
    """Strategy deciding how long a message spends in transit."""

    def delay(self, src: ProcessId, dst: ProcessId, send_time: float) -> float:
        """Return the transit delay (>= 0) for a message sent now."""
        ...


@dataclass(frozen=True)
class SynchronousDelay:
    """Every message takes exactly ``delta`` time units."""

    delta: float = DEFAULT_DELTA

    def delay(self, src: ProcessId, dst: ProcessId, send_time: float) -> float:
        return self.delta


@dataclass(frozen=True)
class RoundSynchronousDelay:
    """Lock-step rounds as in the lower-bound proof (Section 4.1).

    A message sent during round ``i`` — the half-open interval
    ``[(i-1)*delta, i*delta)`` — is delivered precisely at the beginning of
    round ``i+1``, i.e. at time ``i*delta``.  A message sent exactly on a
    round boundary ``i*delta`` belongs to round ``i+1`` and is delivered at
    ``(i+1)*delta``.
    """

    delta: float = DEFAULT_DELTA

    def delivery_time(self, send_time: float) -> float:
        round_index = math.floor(send_time / self.delta) + 1
        return round_index * self.delta

    def delay(self, src: ProcessId, dst: ProcessId, send_time: float) -> float:
        return self.delivery_time(send_time) - send_time


@dataclass
class PartialSynchronyDelay:
    """Partial synchrony: arbitrary (bounded) delays before GST, ``delta`` after.

    Before GST, each message's delay is drawn uniformly from
    ``[delta, pre_gst_max]`` using a seeded RNG (deterministic).  A message
    sent before GST is additionally guaranteed to arrive no later than
    ``gst + delta`` — the standard "messages in flight at GST are delivered
    within delta of GST" convention, which keeps channels reliable.
    """

    delta: float = DEFAULT_DELTA
    gst: float = 0.0
    pre_gst_max: float = 50.0
    seed: int = 0
    _rng: Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = Random(self.seed)

    def delay(self, src: ProcessId, dst: ProcessId, send_time: float) -> float:
        if send_time >= self.gst:
            return self.delta
        raw = self._rng.uniform(self.delta, self.pre_gst_max)
        arrival = min(send_time + raw, self.gst + self.delta)
        return max(arrival - send_time, 0.0)


@dataclass
class RandomDelay:
    """Random delays in ``[min_delay, max_delay]`` for latency experiments."""

    min_delay: float = 0.5
    max_delay: float = 1.5
    seed: int = 0
    _rng: Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.min_delay < 0 or self.max_delay < self.min_delay:
            raise ValueError("need 0 <= min_delay <= max_delay")
        self._rng = Random(self.seed)

    def delay(self, src: ProcessId, dst: ProcessId, send_time: float) -> float:
        return self._rng.uniform(self.min_delay, self.max_delay)


class Envelope(NamedTuple):
    """A message in transit.  Channels are authenticated: ``src`` is trusted.

    What a delay rule, the interceptor, the partition and the tracer see
    of a send — one per recipient, built only while one of them is
    active.  A ``NamedTuple`` rather than a dataclass: C-level tuple
    construction is several times cheaper than a frozen dataclass
    ``__init__``.
    """

    src: ProcessId
    dst: ProcessId
    payload: Any
    send_time: float
    deliver_time: float
    #: Structural size of ``payload`` as charged to
    #: ``NetworkStats.bytes_sent``; required, so no envelope lacks it.
    size: int
    #: Id of the send's event in the installed tracer's record (the
    #: flight recorder, :mod:`repro.obs.recorder`), ``None`` when the
    #: send was not recorded.
    trace: Optional[int] = None


class FanOut(NamedTuple):
    """The record of one send: ``payload`` from ``src`` to each of
    ``dsts``, delivered at the parallel ``deliver_times``.

    Each send hook is called with it, so everything the digest and the
    byte metrics need — endpoints, times and the accounted ``size`` of
    *one* copy — is read from it, never recomputed from the payload.
    ``deliver_times`` are as decided at send time: a message held by a
    partition is delivered later than its record says.  Neither sequence
    is mutated once the record exists.
    """

    src: ProcessId
    dsts: Sequence[ProcessId]
    payload: Any
    send_time: float
    deliver_times: Tuple[float, ...]
    size: int


_deliver_time_of = attrgetter("deliver_time")

#: An interceptor may return a replacement delivery time for the envelope
#: (to delay or reorder it) or ``None`` to accept the delay model's choice.
#: Interceptors cannot drop messages: returning ``math.inf`` is rejected.
Interceptor = Callable[[Envelope], Optional[float]]


# payload_size lives in repro._core.pure and is re-exported here because
# the digest, analysis and test layers import it from this module.


@dataclass(frozen=True)
class DelayRule:
    """A named, declarative message re-timing rule.

    A rule *matches* an envelope when all of its non-``None`` filters do:
    ``src``/``dst`` restrict the endpoints, ``payload_types`` restricts the
    payload class name.  A matching envelope is delayed by ``extra_delay``
    beyond the delay model's choice and, additionally, never delivered
    before the absolute time ``hold_until``.  Rules re-time only — they can
    never drop a message (channels stay reliable).
    """

    name: str
    extra_delay: float = 0.0
    hold_until: Optional[float] = None
    src: Optional[FrozenSet[ProcessId]] = None
    dst: Optional[FrozenSet[ProcessId]] = None
    payload_types: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.extra_delay < 0:
            raise ValueError("extra_delay must be >= 0")
        # Accept any iterable of pids / type names for convenience.
        if self.src is not None and not isinstance(self.src, frozenset):
            object.__setattr__(self, "src", frozenset(self.src))
        if self.dst is not None and not isinstance(self.dst, frozenset):
            object.__setattr__(self, "dst", frozenset(self.dst))
        if self.payload_types is not None and not isinstance(
            self.payload_types, tuple
        ):
            object.__setattr__(
                self, "payload_types", tuple(self.payload_types)
            )

    def matches_endpoints(self, src: ProcessId, dst: ProcessId) -> bool:
        """Endpoint filters only; the payload-type filter is pre-resolved
        by the network's per-type rule index."""
        if self.src is not None and src not in self.src:
            return False
        if self.dst is not None and dst not in self.dst:
            return False
        return True

    def apply(self, deliver_time: float) -> float:
        delayed = deliver_time + self.extra_delay
        if self.hold_until is not None:
            delayed = max(delayed, self.hold_until)
        return delayed


@dataclass(slots=True)
class NetworkStats:
    """Counters the analysis layer reads after a run."""

    messages_sent: int = 0
    messages_delivered: int = 0
    bytes_sent: int = 0
    messages_held: int = 0
    #: The owning network's payload-size memo, whose counters the two
    #: properties below report.
    size_memo: _core.IdentityMemo = field(
        kw_only=True, repr=False, compare=False
    )

    @property
    def size_cache_hits(self) -> int:
        """Top-level size lookups (one per ``send`` / ``broadcast``)
        answered from the memo; hits on nodes inside a walk do not count."""
        return self.size_memo.hits

    @property
    def size_cache_misses(self) -> int:
        """Top-level size lookups that had to walk the payload."""
        return self.size_memo.misses


class Network:
    """Reliable authenticated point-to-point message transport.

    Processes register a delivery callback; :meth:`send` schedules delivery
    on the simulator according to the delay model (possibly re-timed by the
    interceptor).  The network never duplicates, forges, or loses messages,
    matching the channel assumptions in Section 2.1 of the paper.
    """

    def __init__(
        self,
        sim: Simulator,
        delay_model: Optional[DelayModel] = None,
        interceptor: Optional[Interceptor] = None,
    ) -> None:
        self.sim = sim
        self._post_many = sim.post_many  # bound once: called on every fan-out
        #: Sizes per object, not per message embedding it.  The walk is
        #: read off the module here, not imported by name, so that a test
        #: instrumenting ``pure.payload_size`` sees the top-level call as
        #: well as the recursion.
        self._size_memo = _core.IdentityMemo(_core.pure.payload_size)
        self._size_fn: Callable[[Any], int] = self._size_memo.get
        self.stats = NetworkStats(size_memo=self._size_memo)
        self._handlers: Dict[ProcessId, Callable[[ProcessId, Any], None]] = {}
        #: Bound once — the zero-rule delivery callback, queued with its
        #: ``(dst, src, payload)`` per recipient.
        self._deliver_ref = _core.make_deliver(self._handlers, self.stats)
        self._send_hooks: List[Callable[[FanOut], None]] = []
        self._delay_rules: Dict[str, DelayRule] = {}
        #: payload type name -> rules that could match it, in installation
        #: order (rule applications do not commute); lazily rebuilt.
        self._rule_index: Dict[str, Tuple[DelayRule, ...]] = {}
        #: While partitioned: pid -> index of its group; pids in no group
        #: are absent (the implicit "everyone else" group).
        self._group_of: Optional[Dict[ProcessId, int]] = None
        self._held: List[Envelope] = []
        #: The whole network's group, until the next registration.
        self._pid_cache: Optional[Tuple[ProcessId, ...]] = None
        #: Declared broadcast groups (:meth:`group`): group -> member ->
        #: the group without that member, once the member needed it.
        self._groups: Dict[
            Tuple[ProcessId, ...], Dict[ProcessId, Tuple[ProcessId, ...]]
        ] = {}
        #: With a fixed-delay model the per-send model call is replaced by
        #: one float addition (set by the ``delay_model`` setter).
        self._fixed_delay: Optional[float] = None
        #: True while any re-timing machinery (rules, interceptor,
        #: partition) is active; recomputed on every mutation so the send
        #: hot path tests one flag instead of three conditions.
        self._slow = False
        #: The tracer slot — one client, the flight recorder
        #: (``repro.obs.recorder.FlightRecorder``); ``None`` keeps the
        #: send/deliver hot paths untouched.
        self._tracer: Optional[Any] = None
        #: The tracer's ``wants(payload_type)`` verdict, memoized per
        #: payload type: it pays the traced path only for types it records.
        self._tracer_wants: Dict[type, bool] = {}
        self._interceptor = interceptor
        self.delay_model = delay_model or SynchronousDelay()
        self._refresh_slow()

    @property
    def delay_model(self) -> DelayModel:
        return self._delay_model

    @delay_model.setter
    def delay_model(self, model: DelayModel) -> None:
        self._delay_model = model
        if isinstance(model, SynchronousDelay):
            delta = model.delta
            if not 0.0 <= delta < _INF:
                raise ValueError(f"delay model returned invalid delay {delta}")
            self._fixed_delay = delta
        else:
            self._fixed_delay = None

    @property
    def interceptor(self) -> Optional[Interceptor]:
        return self._interceptor

    @interceptor.setter
    def interceptor(self, interceptor: Optional[Interceptor]) -> None:
        self._interceptor = interceptor
        self._refresh_slow()

    def _refresh_slow(self) -> None:
        self._slow = bool(
            self._delay_rules
            or self._interceptor is not None
            or self._group_of is not None
        )

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self, pid: ProcessId, handler: Callable[[ProcessId, Any], None]
    ) -> None:
        """Register the delivery callback for process ``pid``."""
        if pid in self._handlers:
            raise ValueError(f"process {pid} already registered")
        self._handlers[pid] = handler
        self._pid_cache = None

    def group(self, pids: Iterable[ProcessId]) -> Tuple[ProcessId, ...]:
        """Declare a broadcast group over ``pids`` and return it: the
        sorted pid tuple to pass as :meth:`broadcast`'s ``group``.

        Every member must be registered already.  That is checked here,
        once, so broadcasts to the group check nothing.
        """
        members = tuple(sorted(set(pids)))
        handlers = self._handlers
        for pid in members:
            if pid not in handlers:
                raise ValueError(f"unknown destination process {pid}")
        self._groups.setdefault(members, {})
        return members

    @property
    def process_ids(self) -> Tuple[ProcessId, ...]:
        """Every registered pid, sorted: the whole network's group."""
        pids = self._pid_cache
        if pids is None:
            pids = self._pid_cache = self.group(self._handlers)
        return pids

    def add_send_hook(self, hook: Callable[[FanOut], None]) -> None:
        """Observe every send: the trace recorder that feeds the digest,
        the scenario runner's audits, and any reader that wants the
        records (``network.add_send_hook(records.append)``).

        ``hook`` is called once per fan-out — one :meth:`send` or one
        :meth:`broadcast` — with its :class:`FanOut`, hooks in the order
        they were added.  A fan-out with no recipients calls no hook.
        """
        self._send_hooks.append(hook)

    def install_tracer(self, tracer: Optional[Any]) -> None:
        """Install (or remove, with ``None``) the tracer: an object with
        ``wants(payload_type) -> bool``, ``on_send(envelope) ->
        envelope``, ``begin_delivery(envelope) -> token`` and
        ``end_delivery(token)``.  There is one slot and it is not
        composable — a run has one causal recorder.

        The tracer stamps each outgoing envelope's ``trace`` field with
        its id for the send and observes deliveries; delivery *times*
        are unchanged, so a traced run produces the same trace digest
        as an untraced one.  Payload types it does not want skip the
        stamp *and* keep the prebound fast delivery, so a selective
        tracer (the flight recorder) costs near-nothing on payloads it
        ignores.  The verdict is memoized per payload type.
        """
        self._tracer = tracer
        self._tracer_wants = {}

    # ------------------------------------------------------------------
    # Declarative fault primitives: delay rules and partitions
    # ------------------------------------------------------------------

    def set_delay_rule(self, rule: DelayRule) -> DelayRule:
        """Install (or replace, by name) a :class:`DelayRule`.

        The rule applies to messages sent while it is installed; messages
        already in flight keep their scheduled delivery time.
        """
        self._delay_rules[rule.name] = rule
        self._rule_index.clear()
        self._refresh_slow()
        return rule

    def clear_delay_rule(self, name: str) -> None:
        """Remove the named rule.  Unknown names are a no-op."""
        self._delay_rules.pop(name, None)
        self._rule_index.clear()
        self._refresh_slow()

    @property
    def delay_rules(self) -> Tuple[DelayRule, ...]:
        return tuple(self._delay_rules.values())

    def _rules_for(self, type_name: str) -> Tuple[DelayRule, ...]:
        """Installed rules that could match a payload of ``type_name``,
        in installation order (cached per type until the rule set changes)."""
        rules = self._rule_index.get(type_name)
        if rules is None:
            rules = tuple(
                rule
                for rule in self._delay_rules.values()
                if rule.payload_types is None
                or type_name in rule.payload_types
            )
            self._rule_index[type_name] = rules
        return rules

    def start_partition(
        self, groups: Sequence[Iterable[ProcessId]]
    ) -> None:
        """Partition the network into ``groups``.

        Messages whose endpoints fall in different groups are *held* — not
        dropped — until :meth:`heal_partition`.  Processes appearing in no
        group form one implicit extra group.  A process may appear in at
        most one group.
        """
        frozen = tuple(frozenset(g) for g in groups)
        group_of: Dict[ProcessId, int] = {}
        for index, group in enumerate(frozen):
            if not group.isdisjoint(group_of):
                raise ValueError(f"process in multiple partition groups: {frozen}")
            group_of.update(dict.fromkeys(group, index))
        self._group_of = group_of
        self._refresh_slow()

    def heal_partition(self) -> None:
        """Remove the partition and release held messages.

        Each held message is re-timed by the delay model from the heal
        instant, matching the "in-flight messages arrive within the bound
        after stabilization" convention.  Active delay rules and the
        interceptor still apply to the released messages — healing never
        bypasses their contract.
        """
        self._group_of = None
        self._refresh_slow()
        held, self._held = self._held, []
        now = self.sim.now
        for envelope in held:
            delay = self._delay_model.delay(envelope.src, envelope.dst, now)
            released = self._retime(
                envelope._replace(deliver_time=now + delay),
                self._rules_for(type(envelope.payload).__name__),
            )
            self.sim.post(released.deliver_time, self._deliver, released)

    @property
    def held_messages(self) -> Tuple[Envelope, ...]:
        """Messages currently held by the partition."""
        return tuple(self._held)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(
        self, src: ProcessId, dst: ProcessId, payload: Any
    ) -> Optional[FanOut]:
        """Send ``payload`` from ``src`` to ``dst``; returns the record."""
        if dst not in self._handlers:
            raise ValueError(f"unknown destination process {dst}")
        return self._send_general(src, (dst,), payload)

    def broadcast(
        self,
        src: ProcessId,
        payload: Any,
        include_self: bool = True,
        group: Optional[Tuple[ProcessId, ...]] = None,
    ) -> Optional[FanOut]:
        """Send ``payload`` from ``src`` to every member of ``group`` (a
        tuple :meth:`group` returned; by default every registered
        process), in pid order: one fan-out over the group's tuple, or
        over ``src``'s tuple of the others, built on its first use.
        """
        if group is None:
            group = self.process_ids
        peers = self._groups.get(group)
        if peers is None:
            raise ValueError(f"broadcast group {group} is not declared")
        dsts = group
        if not include_self:
            dsts = peers.get(src)
            if dsts is None:
                dsts = peers[src] = tuple([pid for pid in group if pid != src])
        return self._send_general(src, dsts, payload)

    def _send_general(
        self, src: ProcessId, dsts: Sequence[ProcessId], payload: Any
    ) -> Optional[FanOut]:
        """The one transport path: ``payload`` from ``src`` to each of
        ``dsts``, in order — exactly ``len(dsts)`` sends, with everything
        that is constant across the recipients done once (see the module
        docstring for what is per fan-out and what per recipient).
        Returns the fan-out's record, ``None`` when ``dsts`` is empty.
        Every pid of ``dsts`` is registered: :meth:`send` checks its one
        and a group was checked when declared.

        Atomic: nothing is accounted, hooked, held or queued until every
        delivery time of the fan-out exists, so an invalid delay leaves
        no half-sent broadcast behind.
        """
        if not dsts:
            return None
        size = self._size_fn(payload)
        now = self.sim._now
        fixed = self._fixed_delay
        if fixed is not None:
            times = (now + fixed,) * len(dsts)
        else:
            delay_of = self._delay_model.delay
            drawn = []
            for dst in dsts:
                delay = delay_of(src, dst, now)
                if not 0.0 <= delay < _INF:  # also rejects NaN (comparisons False)
                    raise ValueError(f"delay model returned invalid delay {delay}")
                drawn.append(now + delay)
            times = tuple(drawn)
        tracer = self._tracer
        traced = tracer is not None
        if traced:
            ptype = type(payload)
            traced = self._tracer_wants.get(ptype)
            if traced is None:
                traced = self._tracer_wants[ptype] = bool(tracer.wants(ptype))
        # With no delay rules, no interceptor and no partition active
        # (``_slow`` is maintained by their mutators) and no tracer stamp,
        # the times are final and nobody will look at an envelope.
        envelopes: Optional[List[Envelope]] = None
        if self._slow or traced:
            envelopes = [
                Envelope(src, dst, payload, now, at, size)
                for dst, at in zip(dsts, times)
            ]
            if self._slow:
                rules = self._rules_for(type(payload).__name__)
                envelopes = [self._retime(e, rules) for e in envelopes]
            if traced:
                envelopes = [tracer.on_send(e) for e in envelopes]
            times = tuple([e.deliver_time for e in envelopes])
        record = FanOut(src, dsts, payload, now, times, size)
        stats = self.stats
        k = len(dsts)
        stats.messages_sent += k
        stats.bytes_sent += k * size
        for hook in self._send_hooks:
            hook(record)
        if envelopes is None:
            self._post_many(
                self._deliver_ref, times, [(dst, src, payload) for dst in dsts]
            )
            return record
        posted = envelopes
        if self._group_of is not None:
            posted = []
            group_of = self._group_of.get
            side = group_of(src)
            for envelope in envelopes:
                if group_of(envelope.dst) != side:
                    stats.messages_held += 1
                    self._held.append(envelope)
                else:
                    posted.append(envelope)
        posted_at = map(_deliver_time_of, posted)
        if traced:
            # The tracer needs the envelope back at delivery; the queue
            # keys are the same either way, so digests match.
            self._post_many(self._deliver, posted_at, zip(posted))  # (envelope,)
        else:
            self._post_many(
                self._deliver_ref, posted_at, [(e.dst, src, payload) for e in posted]
            )
        return record

    def _retime(
        self, envelope: Envelope, rules: Tuple[DelayRule, ...]
    ) -> Envelope:
        """Apply ``rules`` (those installed for the payload's type), then
        the interceptor, to an envelope."""
        deliver_time = envelope.deliver_time
        if rules:
            src = envelope.src
            dst = envelope.dst
            for rule in rules:
                if rule.matches_endpoints(src, dst):
                    deliver_time = rule.apply(deliver_time)
            if deliver_time != envelope.deliver_time:
                envelope = envelope._replace(deliver_time=deliver_time)
        if self._interceptor is not None:
            override = self._interceptor(envelope)
            if override is not None:
                now = self.sim.now
                if math.isinf(override) or math.isnan(override) or override < now:
                    raise ValueError(
                        f"interceptor returned invalid delivery time {override}"
                    )
                envelope = envelope._replace(deliver_time=override)
        return envelope

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def _deliver(self, envelope: Envelope) -> None:
        handler = self._handlers[envelope.dst]
        self.stats.messages_delivered += 1
        tracer = self._tracer
        if tracer is None:
            handler(envelope.src, envelope.payload)
            return
        token = tracer.begin_delivery(envelope)
        try:
            handler(envelope.src, envelope.payload)
        finally:
            tracer.end_delivery(token)
