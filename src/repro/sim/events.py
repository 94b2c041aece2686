"""Deterministic discrete-event simulation core.

Everything in this reproduction runs on top of a single-threaded,
deterministic event loop.  The paper's arguments are phrased entirely in
terms of *when* messages are delivered (multiples of the synchrony bound
``DELTA`` after GST), so a discrete-event simulator reproduces the
executions the paper reasons about exactly, with none of the
non-determinism of a real network or of ``asyncio``.

The central object is :class:`Simulator`: a clock plus a priority queue of
timestamped callbacks.  Ties are broken by a monotonically increasing
sequence number, so two runs with the same inputs produce the same event
order, byte for byte.

The queue is the hottest data structure in the repository — every message
of every run passes through it — so its loops live with the rest of the
measured hot path in :mod:`repro._core.pure`, and its structure is chosen
for constant factor:

* each queued event is a plain ``[time, seq, callback, args]`` list
  (lists compare element-wise in C, and ``seq`` is unique, so a
  comparison never reaches the callback); the loops run
  ``callback(*args)``, and cancellation overwrites the callback slot
  with ``None`` in place;
* the entry *is* the call: a scheduled event is a zero-argument
  callback with ``args == ()``, a network delivery is the network's
  delivery function with that recipient's arguments beside it — the
  per-delivery path allocates no closure and no ``functools.partial``;
* :meth:`Simulator.post_many` queues one callback at many ``(time,
  args)`` with no handle and no label at all, a whole network fan-out
  per call: the delivery hot path goes through it;
* handles (:class:`EventHandle`) are ``__slots__`` objects created only
  by :meth:`Simulator.schedule`/:meth:`Simulator.schedule_at`, and labels
  are kept lazily — a callable label is only rendered if someone reads
  ``handle.label``;
* cancelled entries are counted, and when they outnumber the live ones
  the queue is compacted in place (filter + ``heapify``), so mass timer
  churn (per-slot SMR timers arm and cancel thousands) cannot bloat every
  subsequent push.

None of this changes the execution order: events still fire in strict
``(time, seq)`` order, and the golden-trace digests in
``tests/golden/scenario_digests.json`` pin that down.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional, Tuple, Union

from .._core import FIRED as _FIRED
from .._core import SimulationError, SimulationTimeout
from .._core import pure as _pure

__all__ = [
    "EventHandle",
    "Simulator",
    "SimulationError",
    "SimulationTimeout",
]

#: A label is either a ready string or a zero-argument callable producing
#: one; callables are rendered only when the label is actually read.
Label = Union[str, Callable[[], str]]


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`, used to cancel events."""

    __slots__ = ("_entry", "_label", "_sim")

    def __init__(self, entry: List[Any], label: Label, sim: Any) -> None:
        self._entry = entry
        self._label = label
        self._sim = sim

    @property
    def time(self) -> float:
        """Absolute simulation time at which the event fires."""
        return self._entry[0]

    @property
    def label(self) -> str:
        label = self._label
        return label() if callable(label) else label

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; cancelling after
        the event already fired is a no-op."""
        entry = self._entry
        callback = entry[2]
        if callback is not None and callback is not _FIRED:
            entry[2] = None
            self._sim._note_cancel()


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0, 2.0]
    """

    #: Compaction only below this queue size is not worth the heapify.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self._now: float = 0.0
        #: Heap of ``[time, seq, callback, args]`` lists; a ``None``
        #: callback marks a cancelled entry awaiting pop or compaction.
        self._queue: List[List[Any]] = []
        self._seq = 0
        self._cancelled = 0
        self._events_processed = 0
        self._compactions = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (useful as a cost metric)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return len(self._queue) - self._cancelled

    @property
    def queue_depth(self) -> int:
        """Raw queue length, cancelled tombstones included (introspection
        for the compaction tests and the profiling harness)."""
        return len(self._queue)

    @property
    def compactions(self) -> int:
        """How many times the queue has been compacted so far."""
        return self._compactions

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        label: Label = "",
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        return self.schedule_at(self._now + delay, callback, label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        label: Label = "",
    ) -> EventHandle:
        """Schedule ``callback`` to run at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: time={time} < now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, callback, ()]
        heapq.heappush(self._queue, entry)
        return EventHandle(entry, label, self)

    def post(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` with no handle and no label.

        Identical ordering semantics to :meth:`schedule_at`; the only
        difference is that nothing is allocated beyond the queue entry, so
        the event cannot be cancelled or labelled afterwards.
        """
        self.post_many(callback, (time,), (args,))

    def post_many(
        self,
        callback: Callable[..., None],
        times: Iterable[float],
        args: Iterable[Tuple[Any, ...]],
    ) -> None:
        """Queue ``callback(*a)`` at ``t`` for each ``t, a`` of ``times``
        and ``args`` taken pairwise, in order — the delivery hot path: a
        network fan-out queues all its deliveries in one call, each entry
        carrying its own arguments, under the consecutive sequence
        numbers separate posts would get.  ``times`` and ``args`` must be
        equally long (``ValueError`` otherwise: a delivery is never
        silently dropped)."""
        now = self._now
        queue = self._queue
        seq = self._seq
        push = heapq.heappush
        try:
            for time, call_args in zip(times, args, strict=True):
                if time < now:
                    raise SimulationError(
                        f"cannot schedule in the past: time={time} < now={now}"
                    )
                push(queue, [time, seq, callback, call_args])
                seq += 1
        finally:
            # Also on the way out of an error: a number already pushed is
            # never handed out again.
            self._seq = seq

    # ------------------------------------------------------------------
    # Cancellation accounting / compaction
    # ------------------------------------------------------------------

    def _note_cancel(self) -> None:
        cancelled = self._cancelled + 1
        self._cancelled = cancelled
        if cancelled >= self._COMPACT_MIN and cancelled * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (see ``_core.pure.compact``)."""
        _pure.compact(self._queue)
        self._cancelled = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution (the loops live in repro._core.pure)
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the single next event.

        Returns ``True`` if an event was executed, ``False`` if the queue
        was empty.  Cancelled events are skipped silently.
        """
        return _pure.step(self)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in order.

        ``until`` bounds simulation time (events scheduled strictly after it
        are left in the queue and the clock is advanced to ``until``).
        ``max_events`` bounds the number of events executed — a guard
        against runaway protocols in tests.
        """
        if until is None and max_events is None:
            _pure.drain(self)
        else:
            _pure.run_bounded(self, until, max_events)

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 1_000_000.0,
        max_events: int = 10_000_000,
    ) -> float:
        """Run until ``predicate()`` becomes true; return the time it did.

        Raises :class:`SimulationTimeout` if the event queue drains or the
        simulated ``timeout`` passes without the predicate holding.
        """
        return _pure.run_pred(self, predicate, timeout, max_events)


def run_simulation(setup: Callable[[Simulator], Any], until: float) -> Any:
    """Convenience helper: build a simulation, run it, return setup's result."""
    sim = Simulator()
    result = setup(sim)
    sim.run(until=until)
    return result
