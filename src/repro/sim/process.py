"""Process abstraction: deterministic state machines driven by the simulator.

Every participant in a protocol — correct or Byzantine — is a
:class:`Process`.  A process reacts to three kinds of stimuli: the start of
the execution, message deliveries, and timer expirations.  It acts on the
world only through its :class:`ProcessContext` (send, broadcast, timers),
which makes it easy to wrap a process to inject Byzantine behaviour.

A protocol class routes messages through one table, ``MESSAGES``: one
row ``(payload type, handler name, view policy, recorder kind, quorum
attribute | None)`` per type, merged along the MRO once per class.  A
delivery is a ``type(payload)`` lookup, the row's view gate on
``payload.view`` against ``self.view``, then the handler, looked up by
name on the concrete class so subclasses may override it:

* ``current`` — a future view waits in ``self._future`` until the
  protocol enters it and replays it; a stale one is dropped;
* ``exact`` — any other view is dropped;
* ``fresh`` — a stale view is dropped;
* ``none`` — no gate (the tally is keyed by the message's own view, or
  the handler compares something else, such as a Paxos ballot).

Kind, view attribute and quorum attribute are facts about the type:
:data:`MESSAGE_FACTS` collects them for the flight recorder and the
agreement oracle (kind ``inner``: classify the wrapped ``inner``
payload), and two tables declaring one type must agree on them.  A
class without a table may override :meth:`Process.on_message` instead.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Hashable, List, NamedTuple, Optional, Tuple

from .events import EventHandle, Simulator
from .network import Network, ProcessId

__all__ = ["MESSAGE_FACTS", "MessageFacts", "Observer", "Process",
           "ProcessContext", "Timer", "VIEW_POLICIES"]

#: The one emit point for local transitions (decide, view entry, fault
#: firing, SMR lifecycle): called positionally as ``observer(kind, pid,
#: slot, view, detail)``.  The owning cluster stamps the time and calls
#: each subscriber with ``(kind, pid, time, slot, view, detail)``.
Observer = Callable[..., None]

#: The view policies a table row may declare (see the module docstring).
VIEW_POLICIES = ("current", "exact", "fresh", "none")


class MessageFacts(NamedTuple):
    """What a payload type means outside its handler: the recorder's
    event kind, the attribute holding its view (or ballot), and the
    config attribute naming the quorum its tally races toward."""

    kind: str
    view: Optional[str]
    quorum: Optional[str]


#: Payload type -> its facts, collected from every process class's table.
MESSAGE_FACTS: Dict[type, MessageFacts] = {}

_MISS = object()


def _view_attribute(ptype: type) -> Optional[str]:
    for name in ("view", "ballot"):
        if name in getattr(ptype, "__dataclass_fields__", ()) or hasattr(ptype, name):
            return name
    return None


def _route(cls: type, ptype: type, handler: str, policy: str, kind: str,
           quorum: Optional[str]) -> Tuple[Callable[..., None], Optional[str]]:
    """One table row, checked and registered: ``(handler, gate)``."""
    function = getattr(cls, handler)
    view = _view_attribute(ptype)
    where = f"{cls.__name__}.MESSAGES: {ptype.__name__}"
    if policy not in VIEW_POLICIES:
        raise TypeError(f"{where}: view policy {policy!r} not in {VIEW_POLICIES}")
    if (policy != "none" and view != "view") or (quorum and view is None):
        raise TypeError(f"{where}: no view for its {policy!r} gate or {quorum!r} tally")
    facts = MessageFacts(kind, view, quorum)
    known = MESSAGE_FACTS.setdefault(ptype, facts)
    if known != facts:
        raise TypeError(f"{where}: declares {facts}, another table {known}")
    return function, None if policy == "none" else policy


class Timer:
    """A cancellable timer owned by a process.

    A ``__slots__`` wrapper around the simulator's event handle — timers
    are armed and cancelled thousands of times per run (per-slot SMR
    pacemakers, client retries), so this stays allocation-light.
    """

    __slots__ = ("name", "handle")

    def __init__(self, name: Hashable, handle: EventHandle) -> None:
        self.name = name
        self.handle = handle

    def cancel(self) -> None:
        self.handle.cancel()

    @property
    def active(self) -> bool:
        return not self.handle.cancelled


class ProcessContext:
    """The only window a process has onto the simulated world."""

    def __init__(self, pid: ProcessId, sim: Simulator, network: Network) -> None:
        self.pid = pid
        self.sim = sim
        self.network = network
        self._timers: Dict[Hashable, Timer] = {}
        self._halted = False
        #: Derived contexts (e.g. per-slot contexts of an SMR replica)
        #: whose crash fate is tied to this one, from :meth:`adopt` until
        #: :meth:`release`.
        self._children: List["ProcessContext"] = []
        #: Where this process reports its local transitions: the owning
        #: cluster's observer (:meth:`repro.sim.runner.Cluster.observe`),
        #: ``None`` while nobody listens — emit sites test exactly that.
        self.observer: Optional[Observer] = None

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def halted(self) -> bool:
        return self._halted

    def adopt(self, child: "ProcessContext") -> None:
        """Tie ``child``'s halt/resume fate to this context.

        A process that multiplexes sub-machines (each with its own timer
        namespace) must register their contexts here, otherwise a crash
        of the parent would leave the children's timers firing — exactly
        the crash-model violation :meth:`halt` exists to rule out.  The
        tie lasts until :meth:`release`.
        """
        self._children.append(child)
        if self._halted:
            child.halt()

    def release(self, child: "ProcessContext") -> None:
        """Undo :meth:`adopt`: ``child``'s sub-machine is finished.

        Halt and resume no longer reach ``child``, so the caller must
        have stopped everything that arms its timers (an SMR replica
        stops a slot's pacemaker when it adopts the slot's decision).
        A timer still armed would outlive the crash model.
        """
        self._children.remove(child)

    def halt(self) -> None:
        """Stop all activity from this process (crash)."""
        self._halted = True
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for child in self._children:
            child.halt()

    def resume(self) -> None:
        """Undo a halt (crash-recovery).

        The process keeps its in-memory state but has lost every message
        delivered while down and every timer armed before the crash —
        exactly the crash-recovery model scenario schedules need.  Waking
        the process up again (e.g. re-arming its timers) is the caller's
        business.  Adopted child contexts not yet released resume
        alongside the parent.
        """
        self._halted = False
        for child in self._children:
            child.resume()

    # ------------------------------------------------------------------
    def send(self, dst: ProcessId, payload: Any) -> None:
        if self._halted:
            return
        self.network.send(self.pid, dst, payload)

    def broadcast(self, payload: Any, include_self: bool = True) -> None:
        if self._halted:
            return
        self.network.broadcast(self.pid, payload, include_self=include_self)

    # ------------------------------------------------------------------
    def set_timer(
        self, name: Hashable, delay: float, callback: Callable[[], None]
    ) -> Timer:
        """(Re)arm the named timer; an existing timer of that name is
        cancelled.  Names are usually strings but any hashable works (the
        SMR client keys retry timers by request id without formatting).

        The timer's label is lazy: it is only rendered if a handle's
        ``label`` is actually read (e.g. while tracing), never on the
        arm/cancel hot path.
        """
        timer = self._timers.pop(name, None)
        if timer is not None:
            timer.cancel()
        handle = self.sim.schedule(
            delay,
            partial(self._fire_timer, name, callback),
            label=partial("timer {}@{}".format, name, self.pid),
        )
        timer = Timer(name, handle)
        self._timers[name] = timer
        return timer

    def cancel_timer(self, name: Hashable) -> None:
        timer = self._timers.pop(name, None)
        if timer is not None:
            timer.cancel()

    def has_timer(self, name: Hashable) -> bool:
        timer = self._timers.get(name)
        return timer is not None and timer.active

    def _fire_timer(self, name: Hashable, callback: Callable[[], None]) -> None:
        if self._halted:
            return
        self._timers.pop(name, None)
        callback()


class Process:
    """Base class for all protocol participants.

    Subclasses declare their ``MESSAGES`` table (or override
    :meth:`on_message`), override :meth:`on_start` and use ``self.ctx``
    to interact with the network.  The harness (see ``repro.sim.runner``)
    constructs the context and wires delivery to :meth:`_dispatch`.
    """

    #: This class's own rows of its message table (module docstring).
    MESSAGES: Tuple[Tuple[Any, ...], ...] = ()
    #: Payload type -> ``(handler, gate)`` over the rows along the MRO,
    #: plus subclass types memoized on first sight (``None``: ignored).
    _routes: Dict[type, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        rows = {}
        for klass in reversed(cls.__mro__):
            for row in vars(klass).get("MESSAGES", ()):
                rows[row[0]] = row
        if rows and cls.on_message is not Process.on_message:
            raise TypeError(f"{cls.__name__} has a message table and an on_message")
        cls._routes = {ptype: _route(cls, *row) for ptype, row in rows.items()}

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid
        self.ctx: Optional[ProcessContext] = None

    # ------------------------------------------------------------------
    # Wiring (called by the runner)
    # ------------------------------------------------------------------

    def attach(self, ctx: ProcessContext) -> None:
        self.ctx = ctx

    def _dispatch(self, sender: ProcessId, payload: Any) -> None:
        ctx = self.ctx
        # Once per delivery: the flag itself, not the ``halted`` property.
        if ctx is None or ctx._halted:
            return
        route = self._routes.get(type(payload), _MISS)
        if route is _MISS:
            self.on_message(sender, payload)
            return
        if route is None:
            return
        handler, gate = route
        if gate is not None:
            view = payload.view
            if view != self.view:
                if view < self.view or gate == "exact":
                    return
                if gate == "current":
                    self._future.setdefault(view, []).append((sender, payload))
                    return
        handler(self, sender, payload)

    def _start(self) -> None:
        if self.ctx is None or self.ctx.halted:
            return
        self.on_start()

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        """Called once at time 0."""

    def on_message(self, sender: ProcessId, payload: Any) -> None:
        """Route one message through the table, as a delivery would.

        A payload whose type subclasses a row's type takes that row
        (resolved along its MRO on first sight, then memoized); a type
        no row covers is ignored.  A class without a table overrides
        this to route everything itself.
        """
        routes = self._routes
        ptype = type(payload)
        if ptype not in routes:
            routes[ptype] = next(
                (routes[base] for base in ptype.__mro__[1:]
                 if routes.get(base) is not None),
                None,
            )
        if routes[ptype] is not None:
            self._dispatch(sender, payload)

    def on_recover(self) -> None:
        """Called after a crash-recovery resume (context already live).

        The default keeps the legacy model: the process resumes with
        whatever in-memory state it happened to keep.  Durable processes
        (e.g. :class:`repro.smr.replica.SMRReplica` with storage)
        override this to discard volatile state and rebuild from their
        write-ahead log and stable checkpoint instead — and to start
        peer catchup when the disk was lost with the crash.
        """

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        assert self.ctx is not None
        return self.ctx.now

    def send(self, dst: ProcessId, payload: Any) -> None:
        assert self.ctx is not None
        self.ctx.send(dst, payload)

    def broadcast(self, payload: Any, include_self: bool = True) -> None:
        assert self.ctx is not None
        self.ctx.broadcast(payload, include_self=include_self)

    def crash(self) -> None:
        """Stop taking steps (until a scenario explicitly recovers us)."""
        if self.ctx is not None:
            self.ctx.halt()

    def recover(self) -> None:
        """Resume after a crash; see :meth:`ProcessContext.resume`.

        The :meth:`on_recover` hook runs after the context is live, so
        it may send, broadcast and arm timers (a durable replica's
        rebuild-and-catchup path needs all three).
        """
        if self.ctx is not None:
            self.ctx.resume()
            self.on_recover()

    @property
    def crashed(self) -> bool:
        return self.ctx is not None and self.ctx.halted
