"""Process abstraction: deterministic state machines driven by the simulator.

Every participant in a protocol — correct or Byzantine — is a
:class:`Process`.  A process reacts to three kinds of stimuli: the start of
the execution, message deliveries, and timer expirations.  It acts on the
world only through its :class:`ProcessContext` (send, broadcast, timers),
which makes it easy to wrap a process to inject Byzantine behaviour.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Hashable, List, Optional

from .events import EventHandle, Simulator
from .network import Network, ProcessId

__all__ = ["Observer", "Process", "ProcessContext", "Timer"]

#: The one emit point for local transitions (decide, view entry, fault
#: firing, SMR lifecycle): called positionally as ``observer(kind, pid,
#: slot, view, detail)``.  The owning cluster stamps the time and calls
#: each subscriber with ``(kind, pid, time, slot, view, detail)``.
Observer = Callable[..., None]


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
        #: whose crash fate is tied to this one; see :meth:`adopt`.
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
        the crash-model violation :meth:`halt` exists to rule out.
        """
        self._children.append(child)
        if self._halted:
            child.halt()

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
        business.  Adopted child contexts resume alongside the parent.
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

    Subclasses override :meth:`on_start`, :meth:`on_message` and use
    ``self.ctx`` to interact with the network.  The harness (see
    ``repro.sim.runner``) constructs the context and wires delivery.
    """

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
        self.on_message(sender, payload)

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
        """Called on each message delivery."""

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
