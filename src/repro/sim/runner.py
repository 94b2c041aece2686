"""Cluster harness: wires processes, network and trace together and runs them.

A :class:`Cluster` owns one simulator, one network and one trace recorder.
It accepts fully constructed :class:`~repro.sim.process.Process` objects
(correct or Byzantine), registers their delivery handlers, attaches their
contexts, and starts them all at time 0.

Any process that exposes a ``decision_hook`` attribute (all consensus
processes in this library do, via ``repro.core.protocol.DecidingProcess``)
gets it wired to the trace recorder, so agreement checks and latency
measurements come for free.

The cluster also owns the run's one **observer** (:meth:`Cluster.observe`):
every local transition — a decide, a view entry, a fault firing, an SMR
replica's lifecycle — is reported through it (an :data:`~repro.sim.
process.Observer`), stamped with the simulated time, to whoever
subscribed (a flight recorder, a metrics adapter).  Processes find it
on their context; with nobody subscribed it is ``None`` and every emit
site is one ``is None`` test.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

from .events import Simulator
from .network import DelayModel, Interceptor, Network, ProcessId, SynchronousDelay
from .process import Observer, Process, ProcessContext
from .trace import TraceRecorder

__all__ = ["Cluster", "ClusterResult"]


class ClusterResult:
    """Snapshot of a finished (or timed-out) run."""

    def __init__(
        self,
        cluster: "Cluster",
        decided: bool,
        decision_value: Any,
        decision_time: Optional[float],
    ) -> None:
        self.cluster = cluster
        self.decided = decided
        self.decision_value = decision_value
        self.decision_time = decision_time
        self.trace = cluster.trace
        self.messages_sent = cluster.network.stats.messages_sent
        self.bytes_sent = cluster.network.stats.bytes_sent


class Cluster:
    """A set of processes sharing a simulated network."""

    def __init__(
        self,
        processes: Sequence[Process],
        delay_model: Optional[DelayModel] = None,
        interceptor: Optional[Interceptor] = None,
        sim: Optional[Simulator] = None,
    ) -> None:
        if not processes:
            raise ValueError("cluster needs at least one process")
        pids = [p.pid for p in processes]
        if len(set(pids)) != len(pids):
            raise ValueError(f"duplicate process ids: {pids}")
        self.sim = sim or Simulator()
        self.network = Network(
            self.sim,
            delay_model=delay_model or SynchronousDelay(),
            interceptor=interceptor,
        )
        self.trace = TraceRecorder(self.network)
        #: What :meth:`observe` installed (``None``: nobody listens).
        self.observer: Optional[Observer] = None
        self.processes: Dict[ProcessId, Process] = {}
        # Everyone is registered before anyone is attached, so a process
        # may declare its broadcast group when it is attached.
        for proc in processes:
            self.network.register(proc.pid, proc._dispatch)
        for proc in processes:
            self._add_process(proc)
        self._started = False

    # ------------------------------------------------------------------
    def _add_process(self, proc: Process) -> None:
        proc.attach(ProcessContext(proc.pid, self.sim, self.network))
        if hasattr(proc, "decision_hook"):
            proc.decision_hook = partial(self._on_decide, proc)
        self.processes[proc.pid] = proc

    def _on_decide(self, proc: Process, value: Any) -> None:
        emit = proc.ctx.observer
        if emit is not None:
            # Observer first: a violating decide is on record before the
            # consistency check below raises.
            emit("decide", proc.pid, None, None, value)
        self.trace.record_decision(proc.pid, value, self.sim.now)

    def observe(
        self,
        subscribers: Sequence[Callable[..., None]],
        pids: Optional[Iterable[ProcessId]] = None,
    ) -> None:
        """Report the local transitions of ``pids`` (default: every
        process) to each of ``subscribers``, in order, stamped with the
        cluster's clock; call before :meth:`start`.

        The scenario runner passes the honest pids: what a Byzantine
        process claims to have decided or entered is not evidence.
        """
        sim = self.sim

        def emit(
            kind: str,
            pid: ProcessId,
            slot: Optional[int] = None,
            view: Optional[int] = None,
            detail: Any = None,
        ) -> None:
            now = sim._now
            for subscriber in subscribers:
                subscriber(kind, pid, now, slot, view, detail)

        self.observer = emit
        for pid in self.pids if pids is None else pids:
            proc = self.processes[pid]
            proc.ctx.observer = emit
            if hasattr(proc, "view_hook"):
                proc.view_hook = partial(emit, "view-change", pid, None)

    # ------------------------------------------------------------------
    @property
    def pids(self) -> Tuple[ProcessId, ...]:
        return tuple(sorted(self.processes))

    def process(self, pid: ProcessId) -> Process:
        return self.processes[pid]

    def start(self) -> None:
        """Schedule every process's ``on_start`` at time 0."""
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        for pid in self.pids:
            proc = self.processes[pid]
            self.sim.schedule_at(self.sim.now, proc._start, label=f"start {pid}")

    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        if not self._started:
            self.start()
        self.sim.run(until=until)

    def run_until_decided(
        self,
        correct_pids: Optional[Iterable[ProcessId]] = None,
        timeout: float = 10_000.0,
        max_events: int = 5_000_000,
    ) -> ClusterResult:
        """Run until every process in ``correct_pids`` has decided.

        Returns a :class:`ClusterResult`; if the timeout elapses first, the
        result has ``decided=False``.  Agreement among the given processes
        is always checked (raising
        :class:`~repro.sim.trace.ConsistencyViolation` on disagreement).
        """
        pids = tuple(correct_pids) if correct_pids is not None else self.pids
        if not self._started:
            self.start()
        from .events import SimulationTimeout

        awaited = self.trace.await_decisions(pids)
        try:
            decision_time = self.sim.run_until(
                lambda: not awaited,
                timeout=timeout,
                max_events=max_events,
            )
            decided = True
        except SimulationTimeout:
            decided = False
            decision_time = None
        value = self.trace.check_agreement(pids)
        if decided:
            decision_time = self.trace.latest_decision_time(pids)
        return ClusterResult(self, decided, value, decision_time)
