"""Materialize a :class:`ScenarioSpec` and run it to a structured result.

The runner is deliberately small: the adapter builds the processes, the
spec builds the delay model, the fault schedule becomes simulator events,
and the oracles judge the trace afterwards.  Nothing here knows protocol
internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..sim.digest import cluster_digest
from ..sim.events import SimulationTimeout
from ..sim.network import DelayRule
from ..sim.runner import Cluster
from ..sim.trace import ConsistencyViolation, message_delays
from .adapters import ADAPTERS, BuiltScenario
from .coverage import collect_coverage
from .invariants import (
    InvariantVerdict,
    attach_audits,
    decisions_of,
    durable_rejoin_sets,
    evaluate_invariants,
)
from .spec import (
    Crash,
    DelayRuleOff,
    DelayRuleOn,
    PartitionHeal,
    PartitionStart,
    Recover,
    ScenarioError,
    ScenarioSpec,
)

__all__ = ["ScenarioResult", "run_scenario", "run_scenarios"]


@dataclass
class ScenarioResult:
    """Everything a finished run produced, ready for reporting."""

    spec: ScenarioSpec
    decided: bool
    decision_value: Any
    decision_time: Optional[float]
    #: Decision latency in message delays (round/synchronous models only).
    steps: Optional[int]
    per_pid_decisions: Dict[int, Any]
    messages_sent: int
    messages_delivered: int
    bytes_sent: int
    messages_by_type: Dict[str, int]
    events_processed: int
    safety_violation: Optional[str]
    verdicts: Tuple[InvariantVerdict, ...] = ()
    #: SMR extras (zero in consensus mode).
    completed_requests: int = 0
    total_requests: int = 0
    applied_slots: int = 0
    #: SHA-256 over sends + decisions + event counters; equal digests mean
    #: equal executions (see :mod:`repro.sim.digest`).
    trace_digest: str = ""
    #: Observability snapshot (registry + per-replica monitor stats); empty
    #: unless a :class:`~repro.obs.metrics.MetricsRegistry` was passed in.
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Execution-coverage facts (views reached, path taken, fault shapes,
    #: oracle margins) — the raw material for the coverage-guided
    #: fuzzer's signatures; see :mod:`repro.scenarios.coverage`.
    coverage: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No oracle failed (n/a oracles do not count against the run)."""
        return not any(v.failed for v in self.verdicts)

    @property
    def failures(self) -> Tuple[InvariantVerdict, ...]:
        return tuple(v for v in self.verdicts if v.failed)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.spec.name,
            "protocol": self.spec.protocol,
            "n": self.spec.n,
            "f": self.spec.f,
            "ok": self.ok,
            "decided": self.decided,
            "decision_value": repr(self.decision_value),
            "decision_time": self.decision_time,
            "steps": self.steps,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "bytes_sent": self.bytes_sent,
            "messages_by_type": dict(sorted(self.messages_by_type.items())),
            "events_processed": self.events_processed,
            "safety_violation": self.safety_violation,
            "completed_requests": self.completed_requests,
            "total_requests": self.total_requests,
            "trace_digest": self.trace_digest,
            "metrics": self.metrics,
            "coverage": self.coverage,
            "invariants": [
                {
                    "name": v.name,
                    "passed": v.passed,
                    "detail": v.detail,
                    "margin": v.margin,
                }
                for v in self.verdicts
            ],
        }

    def summary(self) -> str:
        """A compact multi-line report (CLI output)."""
        lines = [
            f"scenario   : {self.spec.name} [{self.spec.protocol}] "
            f"n={self.spec.n} f={self.spec.f}"
            + (f" t={self.spec.t}" if self.spec.t is not None else ""),
            f"outcome    : {'OK' if self.ok else 'FAIL'}"
            + (
                f" — workload drained at t={self.decision_time}"
                if self.decided and self.total_requests
                else f" — decided {self.decision_value!r} at t={self.decision_time}"
                if self.decided
                else " — no decision"
            ),
        ]
        if self.steps is not None:
            lines.append(f"latency    : {self.steps} message delays")
        if self.total_requests:
            lines.append(
                f"workload   : {self.completed_requests}/{self.total_requests} "
                f"requests completed"
            )
        lines.append(
            f"traffic    : {self.messages_sent} msgs sent, "
            f"{self.messages_delivered} delivered, ~{self.bytes_sent} bytes"
        )
        lines.extend(f"  {verdict}" for verdict in self.verdicts)
        return "\n".join(lines)


def _crash_action(built: BuiltScenario, pid: int, disk: str):
    """Crash ``pid``; a disk-loss crash also wipes its durable storage."""

    def action() -> None:
        process = built.process_by_pid(pid)
        process.crash()
        if disk == "lost":
            wipe = getattr(process, "wipe_storage", None)
            if wipe is not None:
                wipe()

    return action


def _schedule_faults(
    spec: ScenarioSpec, built: BuiltScenario, cluster: Cluster
) -> None:
    network = cluster.network
    emit = cluster.observer
    for event in spec.faults:
        pid = -1
        if isinstance(event, Crash):
            action = _crash_action(built, event.pid, event.disk)
            kind, pid = "crash", event.pid
        elif isinstance(event, Recover):
            action = lambda pid=event.pid: built.process_by_pid(pid).recover()
            kind, pid = "recover", event.pid
        elif isinstance(event, PartitionStart):
            action = lambda groups=event.groups: network.start_partition(groups)
            kind = "partition-start"
        elif isinstance(event, PartitionHeal):
            action = network.heal_partition
            kind = "partition-heal"
        elif isinstance(event, DelayRuleOn):
            rule = DelayRule(
                name=event.name,
                extra_delay=event.extra_delay,
                hold_until=event.hold_until,
                src=frozenset(event.src) if event.src is not None else None,
                dst=frozenset(event.dst) if event.dst is not None else None,
                payload_types=event.payload_types,
            )
            action = lambda r=rule: network.set_delay_rule(r)
            kind = "delay-on"
        elif isinstance(event, DelayRuleOff):
            action = lambda name=event.name: network.clear_delay_rule(name)
            kind = "delay-off"
        else:  # pragma: no cover - exhaustive over FaultEvent
            raise ScenarioError(f"unknown fault event {event!r}")
        if emit is not None:
            def action(
                inner=action, fired=(kind, pid, None, None, str(event))
            ) -> None:
                emit(*fired)
                inner()
        cluster.sim.schedule_at(event.at, action, label=f"fault {event}")


def run_scenarios(specs_or_names, on_result=None) -> "list[ScenarioResult]":
    """Batch API: run several scenarios (specs or canonical-library names).

    The experiment framework calls it per grid point (E14); the CLI and
    tests use it for whole sweeps.  ``on_result(result)`` is invoked after each run (progress
    reporting); results come back in input order.
    """
    from .library import get_scenario

    results = []
    for item in specs_or_names:
        spec = item if isinstance(item, ScenarioSpec) else get_scenario(item)
        result = run_scenario(spec)
        if on_result is not None:
            on_result(result)
        results.append(result)
    return results


def run_scenario(
    spec: ScenarioSpec,
    *,
    metrics: Optional[Any] = None,
    recorder: Optional[Any] = None,
) -> ScenarioResult:
    """Build, run and judge one scenario.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) and
    ``recorder`` (a :class:`~repro.obs.recorder.FlightRecorder`) are
    optional observers; both default to off, and the execution — and its
    trace digest — is byte-identical with or without either.  Both
    subscribe to the cluster's one observer
    (:meth:`~repro.sim.runner.Cluster.observe`) for the honest
    processes' local transitions; the recorder also takes the network's
    tracer slot for the messages.
    """
    spec.validate()
    adapter = ADAPTERS.get(spec.protocol)
    if adapter is None:
        raise ScenarioError(
            f"unknown protocol {spec.protocol!r}; known: {sorted(ADAPTERS)}"
        )
    built = adapter.build(spec)
    cluster = Cluster(built.processes, delay_model=spec.delay.build())
    subscribers: List[Any] = []
    if metrics is not None:
        from ..obs.metrics import ReplicaMetrics

        subscribers.append(
            ReplicaMetrics(metrics, [r.pid for r in built.replicas]).observe
        )
    if recorder is not None:
        recorder.begin_run(
            scenario=spec.name,
            protocol=spec.protocol,
            n=spec.n,
            f=spec.f,
            t=spec.t,
            mode=built.mode,
            honest_pids=sorted(built.honest_pids),
        )
        cluster.network.install_tracer(recorder)
        subscribers.append(recorder.observe)
    if subscribers:
        cluster.observe(subscribers, built.honest_pids)
    _schedule_faults(spec, built, cluster)
    audits = attach_audits(built, cluster.network)

    decided = False
    decision_value: Any = None
    decision_time: Optional[float] = None
    safety_violation: Optional[str] = None
    if built.mode == "smr":
        cluster.start()
        # A client crashed by the schedule (and never recovered) cannot
        # finish its workload; completion is owed only by the others.
        crashed = set(spec.crashed_forever_pids)
        # The predicate runs after every event, so it scans only who is
        # still unfinished: a client that has completed its workload
        # stays complete (nothing submits to it after start), so it is
        # dropped the first time it is seen done.
        unfinished = [c for c in built.clients if c.pid not in crashed]
        # Durable replicas the schedule recovers owe the cluster a full
        # rejoin: the run is not over until each has finished catchup and
        # executed as far as the healthiest honest replica — that is the
        # state the catchup-consistency oracle judges (same helper, so
        # condition and oracle cannot drift apart).  Legacy (storage-
        # less) recoveries keep the old stop condition untouched.
        rejoining, baseline = durable_rejoin_sets(spec, built)

        def _run_complete() -> bool:
            while unfinished:
                if not unfinished[-1].all_completed:
                    return False
                unfinished.pop()
            if not rejoining:
                return True
            target = max((r.executed_upto for r in baseline), default=-1)
            return all(
                not r.crashed
                and not r.catchup_active
                and r.executed_upto >= target
                for r in rejoining
            )

        try:
            decision_time = cluster.sim.run_until(
                _run_complete, timeout=spec.timeout
            )
            decided = True
        except SimulationTimeout:
            decided = False
        except ConsistencyViolation as violation:
            safety_violation = str(violation)
    else:
        try:
            result = cluster.run_until_decided(
                correct_pids=built.live_pids, timeout=spec.timeout
            )
            decided = result.decided
            decision_value = result.decision_value
            decision_time = result.decision_time
        except ConsistencyViolation as violation:
            safety_violation = str(violation)

    steps: Optional[int] = None
    if decided and decision_time is not None and spec.delay.counts_steps:
        steps = message_delays(decision_time, spec.delay.delta)

    verdicts = evaluate_invariants(
        spec, built, cluster, audits, decided, decision_time, safety_violation
    )
    messages_by_type = cluster.trace.messages_by_type()
    coverage = collect_coverage(
        spec, built, decided, steps, messages_by_type, verdicts
    )
    stats = cluster.network.stats
    completed = sum(c.completed_count for c in built.clients)
    total = spec.workload.total_requests if spec.workload is not None else 0
    applied = max(
        (replica.executed_upto + 1 for replica in built.replicas), default=0
    )
    snapshot: Dict[str, Any] = {}
    if metrics is not None:
        metrics.collect_network(cluster.network, messages_by_type)
        snapshot["registry"] = metrics.to_dict()
    monitors = {
        replica.pid: replica.monitor_stats()
        for replica in built.replicas
        if replica.leader_monitor is not None
    }
    if monitors:
        snapshot["monitors"] = monitors
    if recorder is not None:
        recorder.finish_run(
            decided=decided,
            decision_time=decision_time,
            safety_violation=safety_violation,
            failures=[v.name for v in verdicts if v.failed],
        )
    return ScenarioResult(
        spec=spec,
        decided=decided,
        decision_value=decision_value,
        decision_time=decision_time,
        steps=steps,
        per_pid_decisions=decisions_of(cluster, built.honest_pids),
        messages_sent=stats.messages_sent,
        messages_delivered=stats.messages_delivered,
        bytes_sent=stats.bytes_sent,
        messages_by_type=messages_by_type,
        events_processed=cluster.sim.events_processed,
        safety_violation=safety_violation,
        verdicts=verdicts,
        completed_requests=completed,
        total_requests=total,
        applied_slots=applied,
        trace_digest=cluster_digest(cluster),
        metrics=snapshot,
        coverage=coverage,
    )
