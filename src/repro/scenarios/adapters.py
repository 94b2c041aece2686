"""Protocol adapters: one spec, any protocol family.

Each adapter knows how to turn a :class:`~repro.scenarios.spec.ScenarioSpec`
into a list of simulated processes (honest instances plus statically
corrupted ones), which pids the oracles should hold to account, and —
where the family has transferable artifacts — how to audit the
certificates its processes send.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..baselines.fab import FaBConfig, FaBProcess
from ..baselines.optimistic import OptimisticConfig, OptimisticProcess
from ..baselines.paxos import PaxosConfig, PaxosProcess
from ..baselines.pbft import PBFTConfig, PBFTProcess
from ..byzantine.behaviors import (
    ByzantineForge,
    CrashAfter,
    EquivocatingLeader,
    ScriptedSend,
    SilentProcess,
)
from ..core.certificates import ProgressCertificate, progress_certificate_valid
from ..core.config import (
    DurabilityConfig,
    MonitorConfig,
    ProtocolConfig,
    ReplicationConfig,
)
from ..core.fastbft import FastBFTProcess
from ..core.generalized import GeneralizedFBFTProcess
from ..core.messages import Propose
from ..core.quorums import (
    min_processes_fab,
    min_processes_fast_bft,
    min_processes_paxos_crash,
    min_processes_pbft,
)
from ..crypto.keys import KeyRegistry
from ..sim.network import DelayRule, FanOut
from ..sim.process import Process
from ..smr.backends import smr_backend
from ..smr.client import SMRClient
from ..smr.kvstore import KVStore
from ..smr.replica import SMRReplica, fbft_instance_factory
from ..storage.catchup import CatchupReply, CatchupRequest
from ..storage.checkpoint import Checkpoint, state_digest
from .spec import ByzantineRole, ScenarioError, ScenarioSpec

__all__ = [
    "ADAPTERS",
    "BuiltScenario",
    "ProgressCertificateAudit",
    "RelaxedFastQuorumConfig",
    "ScenarioAdapter",
]


@dataclass(frozen=True)
class RelaxedFastQuorumConfig(ProtocolConfig):
    """A deliberately *unsafe* configuration for bug-injection tests.

    Decides on ``fast_quorum_delta`` fewer acks than the protocol
    requires.  The scenario engine's agreement oracle must catch the
    resulting disagreement — that is the regression test for the oracles
    themselves, not a supported deployment.
    """

    fast_quorum_delta: int = 0

    @property
    def fast_quorum(self) -> int:
        return super().fast_quorum - self.fast_quorum_delta


@dataclass
class BuiltScenario:
    """Everything the runner and the oracles need about a materialized spec."""

    processes: List[Process]
    #: Pids running honest code (agreement must hold among them, even if
    #: some crash mid-run).
    honest_pids: Tuple[int, ...]
    #: Honest pids never crashed by the schedule — the ones liveness
    #: obliges to decide.
    live_pids: Tuple[int, ...]
    #: Values a decision may legitimately take (None disables the check).
    allowed_values: Optional[Set[Any]]
    adapter: "ScenarioAdapter"
    mode: str = "consensus"  # or "smr"
    registry: Optional[KeyRegistry] = None
    config: Any = None
    replicas: List[SMRReplica] = field(default_factory=list)
    clients: List[SMRClient] = field(default_factory=list)

    def process_by_pid(self, pid: int) -> Process:
        for proc in self.processes:
            if proc.pid == pid:
                return proc
        raise KeyError(pid)


def _split_pids(spec: ScenarioSpec) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    # Precompute both membership sets once; pid order comes from the
    # range() sweep, so the output stays sorted regardless.
    byz = frozenset(spec.byzantine_pids)
    faulty = frozenset(spec.faulty_pids)
    honest = tuple(pid for pid in range(spec.n) if pid not in byz)
    live = tuple(pid for pid in honest if pid not in faulty)
    return honest, live


def _check_options(spec: ScenarioSpec, allowed: Sequence[str]) -> Dict[str, Any]:
    options = dict(spec.protocol_options)
    unknown = set(options) - set(allowed)
    if unknown:
        raise ScenarioError(
            f"protocol {spec.protocol!r} does not understand options {sorted(unknown)}"
        )
    return options


class ScenarioAdapter:
    """Base adapter: generic Byzantine behaviors, no certificate audit."""

    key: str = ""
    #: Whether the family tolerates Byzantine (vs only crash) faults.
    byzantine: bool = True
    #: Common-case decision latency in message delays (the family's claim).
    claimed_fast_delays: int = 2
    behaviors: Tuple[str, ...] = ("silent", "crash_after")
    option_names: Tuple[str, ...] = ("base_timeout",)

    def min_n(self, f: int, t: int) -> int:
        raise NotImplementedError

    def build(self, spec: ScenarioSpec) -> BuiltScenario:
        raise NotImplementedError

    # -- hooks ----------------------------------------------------------

    def make_honest(self, pid: int, spec: ScenarioSpec, options: Dict[str, Any]) -> Process:
        raise NotImplementedError

    def make_byzantine(
        self, role: ByzantineRole, spec: ScenarioSpec, options: Dict[str, Any]
    ) -> Process:
        if role.behavior not in self.behaviors:
            raise ScenarioError(
                f"protocol {self.key!r} does not support Byzantine behavior "
                f"{role.behavior!r} (supported: {self.behaviors})"
            )
        if role.behavior == "silent":
            return SilentProcess(role.pid)
        if role.behavior == "crash_after":
            return CrashAfter(self.make_honest(role.pid, spec, options), role.at)
        raise ScenarioError(
            f"behavior {role.behavior!r} needs a protocol-specific forge"
        )

    def certificate_audit(
        self, built: BuiltScenario
    ) -> Optional["ProgressCertificateAudit"]:
        """The send hook that audits this run's certificates; None = not
        applicable."""
        return None

    # -- shared assembly ------------------------------------------------

    def _assemble(self, spec: ScenarioSpec, options: Dict[str, Any]) -> BuiltScenario:
        # The runner validates the spec once before dispatching here.
        if not self.byzantine and spec.byzantine:
            raise ScenarioError(
                f"protocol {self.key!r} is crash-fault only; Byzantine roles "
                f"{spec.byzantine_pids} are not expressible"
            )
        roles = {role.pid: role for role in spec.byzantine}
        processes: List[Process] = []
        for pid in range(spec.n):
            if pid in roles:
                processes.append(self.make_byzantine(roles[pid], spec, options))
            else:
                processes.append(self.make_honest(pid, spec, options))
        honest, live = _split_pids(spec)
        allowed = {f"v{pid}" for pid in honest}
        for role in spec.byzantine:
            if role.behavior == "crash_after":
                allowed.add(f"v{role.pid}")  # honest until the crash
            if role.behavior == "equivocate":
                allowed.update(role.values)
        return BuiltScenario(
            processes=processes,
            honest_pids=honest,
            live_pids=live,
            allowed_values=allowed,
            adapter=self,
        )


# ----------------------------------------------------------------------
# This paper's protocol
# ----------------------------------------------------------------------


class ProgressCertificateAudit:
    """Send hook: every progress certificate attached to an honest
    proposal must be well-formed (enough valid confirmation signatures).

    Audits each proposal as it is sent and keeps only the error strings.
    One proposal is audited once, not per copy: whether it goes out as
    one fan-out or as the same object sent recipient by recipient.
    """

    def __init__(
        self,
        honest_pids: Sequence[int],
        registry: KeyRegistry,
        config: ProtocolConfig,
    ) -> None:
        self.errors: List[str] = []
        self._honest = frozenset(honest_pids)
        self._registry = registry
        self._config = config
        self._last: Tuple[Any, Any] = (None, None)

    def add(self, record: FanOut) -> None:
        src, payload = record.src, record.payload
        last_src, last_payload = self._last
        if payload is last_payload and src == last_src:
            return
        self._last = (src, payload)
        if not isinstance(payload, Propose) or src not in self._honest:
            return
        errors = self.errors
        if payload.view == 1:
            if payload.cert is not None:
                errors.append(f"view-1 proposal from {src} carries a certificate")
            return
        cert = payload.cert
        if not isinstance(cert, ProgressCertificate):
            errors.append(
                f"honest proposal for view {payload.view} from "
                f"{src} lacks a progress certificate"
            )
            return
        if not progress_certificate_valid(
            cert, payload.value, payload.view, self._registry,
            self._config.cert_quorum,
        ):
            errors.append(
                f"invalid progress certificate on proposal "
                f"({payload.value!r}, view {payload.view}) from {src}"
            )


class FbftAdapter(ScenarioAdapter):
    """FBFT — vanilla (t = f) or generalized (t < f, slow path on)."""

    key = "fbft"
    byzantine = True
    claimed_fast_delays = 2
    behaviors = ("silent", "crash_after", "equivocate")
    option_names = (
        "base_timeout",
        "cert_scheme",
        "exclude_equivocator",
        "fast_quorum_delta",
    )

    def min_n(self, f: int, t: int) -> int:
        return min_processes_fast_bft(f, t)

    def _config(self, spec: ScenarioSpec, options: Dict[str, Any]) -> ProtocolConfig:
        t = spec.t if spec.t is not None else spec.f
        delta = int(options.get("fast_quorum_delta", 0))
        if delta:
            return RelaxedFastQuorumConfig(
                n=spec.n, f=spec.f, t=t, fast_quorum_delta=delta
            )
        return ProtocolConfig(n=spec.n, f=spec.f, t=t)

    def build(self, spec: ScenarioSpec) -> BuiltScenario:
        options = _check_options(spec, self.option_names)
        config = self._config(spec, options)
        registry = KeyRegistry.for_processes(config.process_ids)
        built = self._assemble_with(spec, options, config, registry)
        built.registry = registry
        built.config = config
        return built

    def _assemble_with(self, spec, options, config, registry) -> BuiltScenario:
        # Stash for make_honest/make_byzantine (called from _assemble).
        self._current = (config, registry)
        try:
            return self._assemble(spec, options)
        finally:
            del self._current

    def make_honest(self, pid: int, spec: ScenarioSpec, options: Dict[str, Any]) -> Process:
        config, registry = self._current
        cls = FastBFTProcess if config.is_vanilla else GeneralizedFBFTProcess
        kwargs: Dict[str, Any] = {}
        if "base_timeout" in options:
            kwargs["base_timeout"] = options["base_timeout"]
        if "cert_scheme" in options:
            kwargs["cert_scheme"] = options["cert_scheme"]
        if "exclude_equivocator" in options:
            kwargs["exclude_equivocator"] = options["exclude_equivocator"]
        return cls(pid, config, registry, f"v{pid}", **kwargs)

    def make_byzantine(
        self, role: ByzantineRole, spec: ScenarioSpec, options: Dict[str, Any]
    ) -> Process:
        if role.behavior != "equivocate":
            return super().make_byzantine(role, spec, options)
        config, registry = self._current
        if config.leader_of(role.view) != role.pid:
            raise ScenarioError(
                f"equivocate: pid {role.pid} does not lead view {role.view}"
            )
        value_a, value_b = role.values
        minority = set(role.minority)
        others = [pid for pid in range(spec.n) if pid != role.pid]
        assignments = {
            pid: (value_b if pid in minority else value_a) for pid in others
        }
        majority = tuple(pid for pid in others if pid not in minority)
        forge = ByzantineForge(role.pid, registry, config)
        ack_time = spec.delay.delta
        extra = (
            (ScriptedSend(
                time=ack_time,
                to=tuple(sorted(minority)),
                payload=forge.ack(value_b, role.view),
            ),)
            if minority
            else ()
        )
        return EquivocatingLeader(
            role.pid,
            registry,
            config,
            view=role.view,
            assignments=assignments,
            ack_value=value_a,
            ack_to=majority,
            ack_time=ack_time,
            extra_script=extra,
        )

    def certificate_audit(
        self, built: BuiltScenario
    ) -> Optional[ProgressCertificateAudit]:
        config, registry = built.config, built.registry
        if config is None or registry is None:
            return None
        if built.processes and getattr(
            built.process_by_pid(built.honest_pids[0]), "cert_scheme", "bounded"
        ) != "bounded":
            return None  # the naive scheme has its own validator
        return ProgressCertificateAudit(built.honest_pids, registry, config)


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------


class PbftAdapter(ScenarioAdapter):
    key = "pbft"
    byzantine = True
    claimed_fast_delays = 3

    def min_n(self, f: int, t: int) -> int:
        return min_processes_pbft(f)

    def build(self, spec: ScenarioSpec) -> BuiltScenario:
        options = _check_options(spec, self.option_names)
        built = self._assemble(spec, options)
        built.config = PBFTConfig(n=spec.n, f=spec.f)
        return built

    def make_honest(self, pid: int, spec: ScenarioSpec, options: Dict[str, Any]) -> Process:
        config = PBFTConfig(n=spec.n, f=spec.f)
        return PBFTProcess(
            pid, config, f"v{pid}",
            base_timeout=options.get("base_timeout", 12.0),
        )


class FabAdapter(ScenarioAdapter):
    key = "fab"
    byzantine = True
    claimed_fast_delays = 2

    def min_n(self, f: int, t: int) -> int:
        return min_processes_fab(f, t)

    def build(self, spec: ScenarioSpec) -> BuiltScenario:
        options = _check_options(spec, self.option_names)
        built = self._assemble(spec, options)
        built.config = FaBConfig(
            n=spec.n, f=spec.f, t=spec.t if spec.t is not None else spec.f
        )
        return built

    def make_honest(self, pid: int, spec: ScenarioSpec, options: Dict[str, Any]) -> Process:
        config = FaBConfig(
            n=spec.n, f=spec.f, t=spec.t if spec.t is not None else spec.f
        )
        return FaBProcess(
            pid, config, f"v{pid}",
            base_timeout=options.get("base_timeout", 12.0),
        )


class PaxosAdapter(ScenarioAdapter):
    key = "paxos"
    byzantine = False
    claimed_fast_delays = 2
    behaviors = ()

    def min_n(self, f: int, t: int) -> int:
        return min_processes_paxos_crash(f)

    def build(self, spec: ScenarioSpec) -> BuiltScenario:
        options = _check_options(spec, self.option_names)
        built = self._assemble(spec, options)
        built.config = PaxosConfig(n=spec.n, f=spec.f)
        return built

    def make_honest(self, pid: int, spec: ScenarioSpec, options: Dict[str, Any]) -> Process:
        config = PaxosConfig(n=spec.n, f=spec.f)
        return PaxosProcess(
            pid, config, f"v{pid}",
            base_timeout=options.get("base_timeout", 12.0),
        )


class OptimisticAdapter(ScenarioAdapter):
    key = "optimistic"
    byzantine = True
    claimed_fast_delays = 2
    option_names = ("base_timeout", "fallback_timeout")

    def min_n(self, f: int, t: int) -> int:
        return min_processes_pbft(f)

    def build(self, spec: ScenarioSpec) -> BuiltScenario:
        options = _check_options(spec, self.option_names)
        built = self._assemble(spec, options)
        built.config = self._config(spec, options)
        return built

    def _config(self, spec: ScenarioSpec, options: Dict[str, Any]) -> OptimisticConfig:
        return OptimisticConfig(
            n=spec.n, f=spec.f,
            fallback_timeout=options.get("fallback_timeout", 4.0),
        )

    def make_honest(self, pid: int, spec: ScenarioSpec, options: Dict[str, Any]) -> Process:
        return OptimisticProcess(
            pid, self._config(spec, options), f"v{pid}",
            base_timeout=options.get("base_timeout", 12.0),
        )


# ----------------------------------------------------------------------
# State machine replication (workload scenarios)
# ----------------------------------------------------------------------


class PacedSMRClient(SMRClient):
    """An SMR client submitting batches at a fixed rate (open loop)."""

    def __init__(self, *args: Any, gap: float, batch: int, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.gap = gap
        self.batch = batch
        self._planned = 0

    def load_workload(self, commands, closed_loop: bool = False) -> None:
        super().load_workload(list(commands), closed_loop=False)
        self._planned = len(commands)

    def on_start(self) -> None:
        pending, self._workload = self._workload, []
        batches = [
            pending[i : i + self.batch] for i in range(0, len(pending), self.batch)
        ]
        for index, chunk in enumerate(batches):
            self.ctx.set_timer(
                f"paced-{index}",
                index * self.gap,
                lambda c=chunk: [self.submit(command) for command in c],
            )

    @property
    def all_completed(self) -> bool:
        return self.completed_count == self._planned


class LyingCatchupReplica(SMRReplica):
    """A Byzantine replica that runs the honest replication protocol but
    forges its catchup replies: a self-consistent (correctly hashed) but
    uncertified checkpoint full of garbage state, corrupted log entries
    for every requested slot, and a wildly inflated progress report.

    Each forgery targets one validation layer of the catchup protocol:
    the checkpoint must die on certificate validation, the entries must
    die on ``f + 1`` cross-checking, and the inflated ``high_slot`` must
    be neutralized by the ``(f + 1)``-th-highest target rule.
    """

    FORGED_STATE = {"k0": "forged-by-byzantine-responder"}

    def _handle_catchup_request(self, sender: int, request: CatchupRequest) -> None:
        from ..smr.replica import Batch

        state = dict(self.FORGED_STATE)
        forged_checkpoint = Checkpoint(
            slot=request.low_slot + 50,
            state=state,
            digest=state_digest(state),  # hashes fine; has no certificate
            cert=None,
        )
        forged_entries = tuple(
            (
                slot,
                Batch(entries=((999, slot, ("set", "k0", "forged")),)),
            )
            for slot in range(request.low_slot, request.low_slot + 4)
        )
        self.send(
            sender,
            CatchupReply(
                low_slot=request.low_slot,
                high_slot=request.low_slot + 1_000_000,
                checkpoint=forged_checkpoint,
                entries=forged_entries,
            ),
        )


class ThrottlingLeaderReplica(SMRReplica):
    """A Byzantine leader that stays *just* live: it runs the honest
    replication protocol but installs a network delay rule adding
    ``throttle`` to every protocol message it sends, so slots decide —
    slowly.  The pacemaker never fires (the leader is not *silent*), so
    only the performance monitor can rotate it out.
    """

    def __init__(self, *args: Any, throttle: float, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.throttle = throttle

    def on_start(self) -> None:
        self.ctx.network.set_delay_rule(
            DelayRule(
                name=f"throttle-leader-{self.pid}",
                extra_delay=self.throttle,
                src=frozenset({self.pid}),
                payload_types=("SlotMessage",),
            )
        )
        super().on_start()


class SmrAdapter(ScenarioAdapter):
    """The full SMR stack (replicas + clients) over a consensus backend.

    Replicas are pids ``0..n-1``; clients ``n..n+clients-1``.  The spec's
    workload section is mandatory; its commands drive the KV store.  The
    replication engine (batching, pipelining) is tuned through
    ``protocol_options``: ``batch_size``, ``batch_timeout`` and
    ``pipeline_depth`` (see :class:`~repro.core.config.ReplicationConfig`);
    the durability subsystem through ``durability`` (bool),
    ``checkpoint_interval`` and ``catchup_retry`` (see
    :class:`~repro.core.config.DurabilityConfig`); the leader-performance
    monitor through ``monitor`` (bool), ``monitor_window``,
    ``monitor_ratio``, ``monitor_min_samples``, ``monitor_min_drain`` and
    ``monitor_cooldown`` (see :class:`~repro.core.config.MonitorConfig`).
    ``monitor_expect_rotation`` is read by the leader-rotation oracle,
    not by the build.
    """

    byzantine = True
    behaviors = ("silent", "bad_catchup", "throttle_leader")
    option_names = (
        "base_timeout",
        "batch_size",
        "batch_timeout",
        "pipeline_depth",
        "durability",
        "checkpoint_interval",
        "catchup_retry",
        "monitor",
        "monitor_window",
        "monitor_ratio",
        "monitor_min_samples",
        "monitor_min_drain",
        "monitor_cooldown",
        "monitor_expect_rotation",
    )

    # -- backend hooks --------------------------------------------------

    def backend(
        self, spec: ScenarioSpec, options: Dict[str, Any]
    ) -> Tuple[Any, Optional[KeyRegistry], Any]:
        """Return (config, registry-or-None, instance_factory)."""
        raise NotImplementedError

    def _replication(self, options: Dict[str, Any]) -> ReplicationConfig:
        return ReplicationConfig(
            batch_size=int(options.get("batch_size", 8)),
            batch_timeout=float(options.get("batch_timeout", 0.0)),
            pipeline_depth=int(options.get("pipeline_depth", 4)),
        )

    def _durability(self, options: Dict[str, Any]) -> Optional[DurabilityConfig]:
        if not options.get("durability"):
            return None
        return DurabilityConfig(
            checkpoint_interval=int(options.get("checkpoint_interval", 4)),
            catchup_retry=float(options.get("catchup_retry", 20.0)),
        )

    def _monitor(self, options: Dict[str, Any]) -> Optional[MonitorConfig]:
        if not options.get("monitor"):
            return None
        return MonitorConfig(
            window=float(options.get("monitor_window", 30.0)),
            degradation_ratio=float(options.get("monitor_ratio", 4.0)),
            min_samples=int(options.get("monitor_min_samples", 3)),
            min_drain=float(options.get("monitor_min_drain", 2.0)),
            cooldown=float(options.get("monitor_cooldown", 60.0)),
        )

    def build(self, spec: ScenarioSpec) -> BuiltScenario:
        options = _check_options(spec, self.option_names)
        if spec.workload is None:
            raise ScenarioError(
                f"protocol {self.key!r} requires a workload spec"
            )
        config, registry, factory = self.backend(spec, options)
        replication = self._replication(options)
        durability = self._durability(options)
        monitor = self._monitor(options)
        shared_registry = registry if (durability or monitor is not None) else None
        roles = {role.pid: role for role in spec.byzantine}
        processes: List[Process] = []
        replicas: List[SMRReplica] = []
        for pid in range(spec.n):
            if pid in roles:
                role = roles[pid]
                if role.behavior == "bad_catchup":
                    # Honest replication, forged state transfer.  Not in
                    # ``replicas``: the oracles hold honest code to
                    # account, this one only has to fail at corrupting
                    # its recovering peers.
                    processes.append(
                        LyingCatchupReplica(
                            pid, spec.n, spec.f, KVStore(), factory,
                            replication=replication,
                            durability=durability,
                            registry=shared_registry,
                            monitor=monitor,
                        )
                    )
                    continue
                if role.behavior == "throttle_leader":
                    # Honest replication at a crawl (``at`` is reused as
                    # the per-message extra delay).  Not in ``replicas``:
                    # the rotation oracle watches the honest monitors.
                    processes.append(
                        ThrottlingLeaderReplica(
                            pid, spec.n, spec.f, KVStore(), factory,
                            replication=replication,
                            durability=durability,
                            registry=shared_registry,
                            monitor=monitor,
                            throttle=float(role.at),
                        )
                    )
                    continue
                if role.behavior != "silent":
                    raise ScenarioError(
                        f"{self.key} supports only "
                        f"{sorted(self.behaviors)} Byzantine replicas"
                    )
                processes.append(SilentProcess(pid))
                continue
            replica = SMRReplica(
                pid, spec.n, spec.f, KVStore(), factory,
                replication=replication,
                durability=durability,
                registry=shared_registry,
                monitor=monitor,
            )
            replicas.append(replica)
            processes.append(replica)
        workload = spec.workload
        clients: List[SMRClient] = []
        allowed: Set[Any] = set()
        for index in range(workload.clients):
            pid = spec.n + index
            commands = workload.commands_for(index)
            allowed.update(commands)
            if workload.rate > 0:
                client: SMRClient = PacedSMRClient(
                    pid=pid, replica_pids=range(spec.n), f=spec.f,
                    gap=workload.rate, batch=workload.batch_size,
                )
            else:
                client = SMRClient(
                    pid=pid, replica_pids=range(spec.n), f=spec.f,
                    window=workload.window,
                )
            client.load_workload(commands, closed_loop=workload.rate <= 0)
            clients.append(client)
            processes.append(client)
        honest, live = _split_pids(spec)
        return BuiltScenario(
            processes=processes,
            honest_pids=honest,
            live_pids=live,
            allowed_values=allowed,
            adapter=self,
            mode="smr",
            registry=registry,
            config=config,
            replicas=replicas,
            clients=clients,
        )


class SmrFbftAdapter(SmrAdapter):
    """SMR over this paper's (generalized) FBFT instances."""

    key = "fbft-smr"
    claimed_fast_delays = 2

    def min_n(self, f: int, t: int) -> int:
        return min_processes_fast_bft(f, t)

    def backend(self, spec, options):
        t = spec.t if spec.t is not None else spec.f
        return smr_backend(
            "fbft", spec.n, spec.f, t=t,
            base_timeout=options.get("base_timeout", 12.0),
        )


class SmrPbftAdapter(SmrAdapter):
    """SMR over PBFT instances — the throughput comparison baseline."""

    key = "pbft-smr"
    claimed_fast_delays = 3

    def min_n(self, f: int, t: int) -> int:
        return min_processes_pbft(f)

    def backend(self, spec, options):
        return smr_backend(
            "pbft", spec.n, spec.f,
            base_timeout=options.get("base_timeout", 12.0),
        )


ADAPTERS: Dict[str, ScenarioAdapter] = {
    adapter.key: adapter
    for adapter in (
        FbftAdapter(),
        PbftAdapter(),
        FabAdapter(),
        PaxosAdapter(),
        OptimisticAdapter(),
        SmrFbftAdapter(),
        SmrPbftAdapter(),
    )
}
