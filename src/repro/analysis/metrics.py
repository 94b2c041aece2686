"""Measurement helpers: latency distributions, throughput, run summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..sim.network import DelayModel, RoundSynchronousDelay, SynchronousDelay
from ..sim.process import Process
from ..sim.runner import Cluster
from ..sim.trace import message_delays

__all__ = [
    "Stats",
    "CatchupResult",
    "CommonCaseResult",
    "MonitorTailResult",
    "ThroughputResult",
    "run_catchup",
    "run_common_case",
    "repeat_latency",
    "run_monitor_tail",
    "run_smr_throughput",
    "smr_instance_factory",
]


@dataclass(frozen=True)
class Stats:
    """Summary statistics of a sample (times or delay counts)."""

    count: int
    mean: float
    p50: float
    p95: float
    minimum: float
    maximum: float
    #: Tail percentile (E18's headline metric); defaulted so that older
    #: pickled/recorded Stats and positional callers keep working.
    p99: float = 0.0

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "Stats":
        if not values:
            raise ValueError("cannot summarize an empty sample")
        array = np.asarray(values, dtype=float)
        return cls(
            count=int(array.size),
            mean=float(array.mean()),
            p50=float(np.percentile(array, 50)),
            p95=float(np.percentile(array, 95)),
            minimum=float(array.min()),
            maximum=float(array.max()),
            p99=float(np.percentile(array, 99)),
        )


@dataclass(frozen=True)
class CommonCaseResult:
    """One common-case run: decision latency and message cost."""

    decided: bool
    value: Any
    decision_time: Optional[float]
    delays: Optional[int]
    messages: int
    messages_by_type: Dict[str, int]
    #: Estimated bytes put on the wire up to the decision (the sizes the
    #: network accounted per send, :attr:`repro.sim.network.FanOut.size`).
    bytes_sent: int = 0


def run_common_case(
    processes: Sequence[Process],
    correct_pids: Optional[Iterable[int]] = None,
    delta: float = 1.0,
    delay_model: Optional[DelayModel] = None,
    timeout: float = 1_000.0,
) -> CommonCaseResult:
    """Run a cluster until all correct processes decide; report latency.

    With the default round-synchronous delay model, ``delays`` is the
    decision latency in message delays — the paper's headline metric.
    """
    model = delay_model or RoundSynchronousDelay(delta)
    cluster = Cluster(list(processes), delay_model=model)
    result = cluster.run_until_decided(correct_pids=correct_pids, timeout=timeout)
    delays = None
    if result.decided and isinstance(model, RoundSynchronousDelay):
        delays = message_delays(result.decision_time, delta)
    # Count only messages sent up to the decision (pacemakers keep running).
    if result.decided:
        messages = sum(
            len(record.dsts)
            for record in cluster.trace.fan_outs
            if record.send_time <= result.decision_time + 1e-9
        )
    else:
        messages = cluster.trace.message_count()
    by_type: Dict[str, int] = {}
    bytes_sent = 0
    for record in cluster.trace.fan_outs:
        if result.decided and record.send_time > result.decision_time + 1e-9:
            continue
        name = type(record.payload).__name__
        by_type[name] = by_type.get(name, 0) + len(record.dsts)
        bytes_sent += len(record.dsts) * record.size
    return CommonCaseResult(
        decided=result.decided,
        value=result.decision_value,
        decision_time=result.decision_time,
        delays=delays,
        messages=messages,
        messages_by_type=by_type,
        bytes_sent=bytes_sent,
    )


@dataclass(frozen=True)
class ThroughputResult:
    """One closed-loop SMR run: sustained ops/sec and latency percentiles."""

    backend: str
    n: int
    f: int
    batch_size: int
    pipeline_depth: int
    clients: int
    window: int
    completed: int
    #: Simulated time from start until every client's workload drained.
    duration: float
    #: Completed commands per unit of simulated time.
    ops_per_sec: float
    #: End-to-end command latency distribution (submit -> f+1 replies).
    latency: Stats
    #: Log slots the replicas actually consumed (batching collapses these).
    slots_used: int
    messages_sent: int

    def row(self) -> List[Any]:
        """The table row the E15 experiment prints."""
        return [
            self.backend,
            self.batch_size,
            self.pipeline_depth,
            self.completed,
            self.slots_used,
            round(self.ops_per_sec, 3),
            round(self.latency.p50, 1),
            round(self.latency.p95, 1),
        ]


def smr_instance_factory(backend: str, n: int, f: int, t: int = 1,
                         base_timeout: float = 12.0):
    """Per-slot consensus factory for an SMR backend (``fbft`` / ``pbft``).

    Thin view over :func:`repro.smr.backends.smr_backend` — the same
    construction the scenario adapters use, so harness and scenarios
    always measure the identical engine.
    """
    from ..smr.backends import smr_backend

    return smr_backend(backend, n, f, t=t, base_timeout=base_timeout)[2]


def run_smr_throughput(
    backend: str = "fbft",
    n: int = 4,
    f: int = 1,
    t: int = 1,
    clients: int = 4,
    requests_per_client: int = 16,
    window: int = 8,
    batch_size: int = 8,
    pipeline_depth: int = 4,
    batch_timeout: float = 0.0,
    delta: float = 1.0,
    base_timeout: float = 12.0,
    timeout: float = 100_000.0,
) -> ThroughputResult:
    """Drive a closed-loop KV workload through a replica group and measure
    sustained throughput and latency percentiles.

    Every client keeps ``window`` commands in flight; the replicas pack
    up to ``batch_size`` commands per slot and keep ``pipeline_depth``
    consensus instances running.  Simulated time is deterministic, so the
    reported ops/sec are exactly reproducible.
    """
    from ..core.config import ReplicationConfig
    from ..smr.client import SMRClient
    from ..smr.kvstore import KVStore
    from ..smr.replica import SMRReplica

    factory = smr_instance_factory(backend, n, f, t=t, base_timeout=base_timeout)
    replication = ReplicationConfig(
        batch_size=batch_size,
        batch_timeout=batch_timeout,
        pipeline_depth=pipeline_depth,
    )
    replicas = [
        SMRReplica(pid, n, f, KVStore(), factory, replication=replication)
        for pid in range(n)
    ]
    client_procs = [
        SMRClient(pid=n + i, replica_pids=range(n), f=f, window=window)
        for i in range(clients)
    ]
    for index, client in enumerate(client_procs):
        client.load_workload(
            [("set", f"k{index}.{i}", i) for i in range(requests_per_client)]
        )
    cluster = Cluster(
        replicas + client_procs, delay_model=SynchronousDelay(delta)
    )
    cluster.start()
    duration = cluster.sim.run_until(
        lambda: all(c.all_completed for c in client_procs), timeout=timeout
    )
    completed = sum(c.completed_count for c in client_procs)
    latencies = [l for c in client_procs for l in c.latencies()]
    slots_used = max(r.executed_upto for r in replicas) + 1
    # Slot-wise agreement (a replica may still be catching up on the very
    # last slot at the instant the workload drains).
    by_slot: Dict[int, set] = {}
    for replica in replicas:
        for slot, value in replica.log:
            by_slot.setdefault(slot, set()).add(value)
    conflicting = {slot for slot, values in by_slot.items() if len(values) > 1}
    assert not conflicting, f"replica logs diverged on slots {sorted(conflicting)}"
    return ThroughputResult(
        backend=backend,
        n=n,
        f=f,
        batch_size=batch_size,
        pipeline_depth=pipeline_depth,
        clients=clients,
        window=window,
        completed=completed,
        duration=duration,
        ops_per_sec=completed / duration,
        latency=Stats.from_values(latencies),
        slots_used=slots_used,
        messages_sent=cluster.network.stats.messages_sent,
    )


@dataclass(frozen=True)
class CatchupResult:
    """One crash-and-rejoin run of the durability subsystem (E17)."""

    backend: str
    n: int
    f: int
    checkpoint_interval: int
    disk: str
    #: Slots the victim was behind at the moment it recovered.
    lag_slots: int
    #: Simulated time from recovery until fully caught up.
    catchup_time: float
    #: CatchupRequest/CatchupReply messages and bytes from recovery on.
    catchup_messages: int
    catchup_bytes: int
    #: Stable-checkpoint slot the victim holds after rejoining.
    stable_slot: int
    #: WAL records the victim retains after rejoining (compaction proof).
    wal_records: int
    #: Whether the rebuilt state digest equals a never-crashed replica's.
    digests_equal: bool


def run_catchup(
    backend: str = "fbft",
    n: int = 4,
    f: int = 1,
    t: int = 1,
    checkpoint_interval: int = 4,
    warmup_requests: int = 4,
    lag_requests: int = 12,
    disk: str = "lost",
    batch_size: int = 2,
    pipeline_depth: int = 2,
    delta: float = 1.0,
    timeout: float = 50_000.0,
) -> CatchupResult:
    """Crash a durable replica, grow a lag, recover it, and measure the
    state transfer: catchup latency and bytes vs lag depth and
    checkpoint interval (experiment E17).

    Three simulated phases — warmup (everyone executes together), lag
    (the victim is down, ``disk`` retained or lost, while
    ``lag_requests`` commands commit without it), recovery (checkpoint
    restore + WAL replay + peer catchup) — all deterministic, so every
    reported number is exactly reproducible.
    """
    from ..core.config import DurabilityConfig, ReplicationConfig
    from ..smr.client import SMRClient
    from ..smr.kvstore import KVStore
    from ..smr.replica import SMRReplica
    from ..storage.checkpoint import state_digest

    registry = None
    if backend == "fbft":
        from ..smr.backends import smr_backend

        _config, registry, factory = smr_backend(backend, n, f, t=t)
    else:
        factory = smr_instance_factory(backend, n, f, t=t)
    durability = DurabilityConfig(checkpoint_interval=checkpoint_interval)
    replication = ReplicationConfig(
        batch_size=batch_size, pipeline_depth=pipeline_depth
    )
    replicas = [
        SMRReplica(
            pid, n, f, KVStore(), factory,
            replication=replication, durability=durability, registry=registry,
        )
        for pid in range(n)
    ]
    client = SMRClient(pid=n, replica_pids=range(n), f=f, window=2)
    cluster = Cluster(replicas + [client], delay_model=SynchronousDelay(delta))
    cluster.start()

    for i in range(warmup_requests):
        client.submit(("set", f"warm{i}", i))
    cluster.sim.run_until(
        lambda: client.completed_count == warmup_requests, timeout=timeout
    )

    victim = replicas[n - 1]
    survivors = [r for r in replicas if r is not victim]
    victim.crash()
    if disk == "lost":
        victim.wipe_storage()
    for i in range(lag_requests):
        client.submit(("set", f"lag{i}", i))
    total = warmup_requests + lag_requests
    cluster.sim.run_until(lambda: client.completed_count == total, timeout=timeout)

    lag_slots = max(r.executed_upto for r in survivors) - victim.executed_upto
    recovery_start = cluster.sim.now
    victim.recover()
    cluster.sim.run_until(
        lambda: not victim.catchup_active
        and victim.executed_upto >= max(r.executed_upto for r in survivors),
        timeout=timeout,
    )
    catchup_time = cluster.sim.now - recovery_start
    catchup_messages = 0
    catchup_bytes = 0
    for record in cluster.trace.fan_outs:
        if record.send_time < recovery_start - 1e-9:
            continue
        if type(record.payload).__name__ in ("CatchupRequest", "CatchupReply"):
            catchup_messages += len(record.dsts)
            catchup_bytes += len(record.dsts) * record.size
    reference = max(survivors, key=lambda r: r.executed_upto)
    digests_equal = state_digest(victim.state_machine.snapshot()) == state_digest(
        reference.state_machine.snapshot()
    )
    return CatchupResult(
        backend=backend,
        n=n,
        f=f,
        checkpoint_interval=checkpoint_interval,
        disk=disk,
        lag_slots=lag_slots,
        catchup_time=catchup_time,
        catchup_messages=catchup_messages,
        catchup_bytes=catchup_bytes,
        stable_slot=victim.stable_checkpoint_slot,
        wal_records=len(victim.storage.wal),
        digests_equal=digests_equal,
    )


@dataclass(frozen=True)
class MonitorTailResult:
    """One throttled-leader SMR run with the performance monitor on or off
    (experiment E18)."""

    severity: float
    window: float
    monitor_on: bool
    completed: int
    #: Simulated time until every client's workload drained.
    duration: float
    #: Steady-state request latency (first ``warmup`` completions per
    #: client excluded: they land while the monitor is still sampling).
    latency: Stats
    #: Completed leader demotions, summed over the honest replicas.
    demotions: int
    votes_cast: int
    #: Highest view floor any replica reached (1 = leader never rotated).
    view_floor: int


def run_monitor_tail(
    severity: float = 8.0,
    window: float = 30.0,
    monitor_on: bool = True,
    n: int = 4,
    f: int = 1,
    t: int = 1,
    clients: int = 2,
    requests_per_client: int = 20,
    client_window: int = 4,
    batch_size: int = 2,
    pipeline_depth: int = 4,
    warmup: int = 4,
    delta: float = 1.0,
    base_timeout: float = 60.0,
    timeout: float = 100_000.0,
) -> MonitorTailResult:
    """Throttle the initial leader and measure the latency tail with the
    performance monitor on vs off (experiment E18).

    Replica 0 stays honest but every protocol message it sends is delayed
    by ``severity`` — the performance attack that never trips a timeout
    (``base_timeout`` is far above any slot latency).  With the monitor
    off the cluster limps at the throttled pace forever; with it on the
    degraded slot latency should cross the drain-rate threshold, gather
    ``2f + 1`` demotion votes and rotate leadership, pulling p99 back
    down.  Both arms share the key registry, workload and delay model, so
    the only difference is the monitor itself.
    """
    from ..core.config import MonitorConfig, ReplicationConfig
    from ..sim.network import DelayRule
    from ..smr.backends import smr_backend
    from ..smr.client import SMRClient
    from ..smr.kvstore import KVStore
    from ..smr.replica import SMRReplica

    _config, registry, factory = smr_backend(
        "fbft", n, f, t=t, base_timeout=base_timeout
    )
    replication = ReplicationConfig(
        batch_size=batch_size, pipeline_depth=pipeline_depth
    )
    monitor = MonitorConfig(window=window) if monitor_on else None
    replicas = [
        SMRReplica(
            pid, n, f, KVStore(), factory,
            replication=replication, registry=registry, monitor=monitor,
        )
        for pid in range(n)
    ]
    client_procs = [
        SMRClient(pid=n + i, replica_pids=range(n), f=f, window=client_window)
        for i in range(clients)
    ]
    for index, client in enumerate(client_procs):
        client.load_workload(
            [("set", f"k{index}.{i}", i) for i in range(requests_per_client)]
        )
    cluster = Cluster(
        replicas + client_procs, delay_model=SynchronousDelay(delta)
    )
    cluster.network.set_delay_rule(
        DelayRule(
            name="throttle-leader",
            extra_delay=severity,
            src=frozenset({0}),
            payload_types=("SlotMessage",),
        )
    )
    cluster.start()
    duration = cluster.sim.run_until(
        lambda: all(c.all_completed for c in client_procs), timeout=timeout
    )
    steady = [
        latency
        for client in client_procs
        for latency in client.latencies()[warmup:]
    ]
    demotions = votes = 0
    floor = 1
    for replica in replicas:
        mon = replica.leader_monitor
        if mon is not None:
            demotions += mon.demotions
            votes += mon.votes_cast
            floor = max(floor, mon.view_floor)
    return MonitorTailResult(
        severity=severity,
        window=window,
        monitor_on=monitor_on,
        completed=sum(c.completed_count for c in client_procs),
        duration=duration,
        latency=Stats.from_values(steady),
        demotions=demotions,
        votes_cast=votes,
        view_floor=floor,
    )


def repeat_latency(
    build_processes,
    runs: int,
    delay_model_factory,
    correct_pids: Optional[Iterable[int]] = None,
    timeout: float = 1_000.0,
) -> Stats:
    """Run ``runs`` independent clusters (fresh delay model per run, e.g.
    different seeds) and summarize the wall-clock decision latency."""
    times: List[float] = []
    for run in range(runs):
        cluster = Cluster(
            list(build_processes()), delay_model=delay_model_factory(run)
        )
        result = cluster.run_until_decided(
            correct_pids=correct_pids, timeout=timeout
        )
        if not result.decided:
            raise RuntimeError(f"run {run} did not decide within {timeout}")
        times.append(result.decision_time)
    return Stats.from_values(times)
