"""Declarative scenario specifications.

A :class:`ScenarioSpec` is plain data: everything needed to reproduce an
execution — cluster shape, delay model, fault schedule, Byzantine roles,
workload — with a JSON round-trip (:meth:`ScenarioSpec.to_dict` /
:meth:`ScenarioSpec.from_dict`) so failing fuzz seeds can be saved and
replayed as minimal reproducers.

The fault schedule is a sequence of *timed events* applied to the live
simulation; Byzantine roles are *static* (the misbehaving process is
built misbehaving, mirroring the paper's model where the adversary
corrupts processes, not messages).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from random import Random
from typing import Any, Dict, List, Optional, Tuple, Union

from ..sim.network import (
    DelayModel,
    PartialSynchronyDelay,
    RandomDelay,
    RoundSynchronousDelay,
    SynchronousDelay,
)

__all__ = [
    "ByzantineRole",
    "Crash",
    "DelayRuleOff",
    "DelayRuleOn",
    "DelaySpec",
    "FaultEvent",
    "PartitionHeal",
    "PartitionStart",
    "Recover",
    "ScenarioError",
    "ScenarioSpec",
    "WorkloadSpec",
]


class ScenarioError(Exception):
    """An invalid or unsupported scenario specification."""


# ----------------------------------------------------------------------
# Delay model
# ----------------------------------------------------------------------

#: Recognized delay-model kinds and the spec fields each consumes.
DELAY_KINDS = ("synchronous", "round", "partial", "random")


@dataclass(frozen=True)
class DelaySpec:
    """Which :class:`~repro.sim.network.DelayModel` to run under.

    ``gst``/``pre_gst_max``/``seed`` apply to ``kind="partial"``;
    ``min_delay``/``max_delay`` to ``kind="random"``.
    """

    kind: str = "synchronous"
    delta: float = 1.0
    gst: float = 0.0
    pre_gst_max: float = 30.0
    seed: int = 0
    min_delay: float = 0.5
    max_delay: float = 1.5

    def __post_init__(self) -> None:
        if self.kind not in DELAY_KINDS:
            raise ScenarioError(
                f"unknown delay kind {self.kind!r}; expected one of {DELAY_KINDS}"
            )
        if self.delta <= 0:
            raise ScenarioError("delta must be > 0")
        if self.kind == "random" and not 0 <= self.min_delay <= self.max_delay:
            raise ScenarioError(
                f"random delay needs 0 <= min_delay <= max_delay, got "
                f"min_delay={self.min_delay!r}, max_delay={self.max_delay!r}"
            )

    def build(self) -> DelayModel:
        if self.kind == "synchronous":
            return SynchronousDelay(self.delta)
        if self.kind == "round":
            return RoundSynchronousDelay(self.delta)
        if self.kind == "partial":
            return PartialSynchronyDelay(
                delta=self.delta,
                gst=self.gst,
                pre_gst_max=self.pre_gst_max,
                seed=self.seed,
            )
        return RandomDelay(
            min_delay=self.min_delay, max_delay=self.max_delay, seed=self.seed
        )

    @property
    def counts_steps(self) -> bool:
        """Whether decision times convert cleanly to message-delay counts."""
        return self.kind in ("synchronous", "round")


# ----------------------------------------------------------------------
# Timed fault events
# ----------------------------------------------------------------------


#: What a crash does to the process's durable storage (``repro.storage``).
CRASH_DISK_MODES = ("retained", "lost")


@dataclass(frozen=True)
class Crash:
    """Halt process ``pid`` at time ``at`` (no further steps).

    ``disk`` only matters for durable SMR replicas: ``"retained"`` (the
    default) leaves the write-ahead log and stable checkpoint on disk
    for recovery to replay; ``"lost"`` wipes them with the crash, so a
    later :class:`Recover` must rebuild the whole state from peers via
    the catchup protocol.
    """

    at: float
    pid: int
    disk: str = "retained"

    def __post_init__(self) -> None:
        if self.disk not in CRASH_DISK_MODES:
            raise ScenarioError(
                f"unknown crash disk mode {self.disk!r}; "
                f"expected one of {CRASH_DISK_MODES}"
            )


@dataclass(frozen=True)
class Recover:
    """Resume a previously crashed ``pid`` at time ``at`` (state intact,
    missed messages and timers lost)."""

    at: float
    pid: int


@dataclass(frozen=True)
class PartitionStart:
    """Split the network into ``groups`` at time ``at``; crossing messages
    are held (never dropped) until the next :class:`PartitionHeal`."""

    at: float
    groups: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "groups", tuple(tuple(sorted(g)) for g in self.groups)
        )


@dataclass(frozen=True)
class PartitionHeal:
    """Heal the current partition at time ``at``."""

    at: float


@dataclass(frozen=True)
class DelayRuleOn:
    """Install a named :class:`~repro.sim.network.DelayRule` at time ``at``."""

    at: float
    name: str
    extra_delay: float = 0.0
    hold_until: Optional[float] = None
    src: Optional[Tuple[int, ...]] = None
    dst: Optional[Tuple[int, ...]] = None
    payload_types: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        for attr in ("src", "dst", "payload_types"):
            value = getattr(self, attr)
            if value is not None:
                object.__setattr__(self, attr, tuple(value))


@dataclass(frozen=True)
class DelayRuleOff:
    """Remove the named delay rule at time ``at``."""

    at: float
    name: str


FaultEvent = Union[
    Crash, Recover, PartitionStart, PartitionHeal, DelayRuleOn, DelayRuleOff
]

_EVENT_TYPES = {
    cls.__name__: cls
    for cls in (Crash, Recover, PartitionStart, PartitionHeal, DelayRuleOn, DelayRuleOff)
}


# ----------------------------------------------------------------------
# Byzantine roles
# ----------------------------------------------------------------------

BYZANTINE_BEHAVIORS = (
    "silent",
    "crash_after",
    "equivocate",
    "bad_catchup",
    "throttle_leader",
)


@dataclass(frozen=True)
class ByzantineRole:
    """A statically corrupted process.

    * ``silent`` — never takes a step;
    * ``crash_after`` — runs the honest protocol, halts at ``at``;
    * ``equivocate`` — a Byzantine leader of ``view`` showing
      ``values[0]`` to most processes and ``values[1]`` to ``minority``,
      then acknowledging both sides (only supported by protocol families
      whose adapter knows how to forge the messages);
    * ``bad_catchup`` — an SMR replica that runs the honest replication
      protocol but answers peer catchup requests with forged state
      (bogus checkpoint, corrupted log entries, inflated progress) —
      the adversary the state-transfer validation exists to defeat;
    * ``throttle_leader`` — an SMR replica that runs the honest protocol
      but delays every protocol message it sends by ``at`` (reused as
      the per-message extra delay): slow enough to hurt tail latency,
      live enough that timeouts never fire — the adversary the
      leader-performance monitor exists to demote.
    """

    pid: int
    behavior: str = "silent"
    at: float = 1.0
    view: int = 1
    values: Tuple[Any, Any] = ("x", "y")
    minority: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.behavior not in BYZANTINE_BEHAVIORS:
            raise ScenarioError(
                f"unknown Byzantine behavior {self.behavior!r}; "
                f"expected one of {BYZANTINE_BEHAVIORS}"
            )
        object.__setattr__(self, "minority", tuple(self.minority))
        object.__setattr__(self, "values", tuple(self.values))


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """Client workload for SMR scenarios.

    ``rate`` is the inter-batch gap in simulated time; ``0`` means
    closed-loop (up to ``window`` commands in flight, refilled on
    completion).  ``batch_size`` commands are submitted per burst in
    open-loop mode.  Keys are drawn from ``key_space`` uniformly, except
    a ``hot_fraction`` of commands that all hit key 0 (a skewed /
    contended workload).
    """

    clients: int = 1
    requests_per_client: int = 3
    rate: float = 0.0
    batch_size: int = 1
    window: int = 1
    key_space: int = 8
    hot_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clients < 1 or self.requests_per_client < 1:
            raise ScenarioError("workload needs >= 1 client and >= 1 request")
        if self.batch_size < 1:
            raise ScenarioError("batch_size must be >= 1")
        if self.window < 1:
            raise ScenarioError("window must be >= 1")
        if not (0.0 <= self.hot_fraction <= 1.0):
            raise ScenarioError("hot_fraction must be in [0, 1]")
        if self.key_space < 1:
            raise ScenarioError("key_space must be >= 1")

    def commands_for(self, client_index: int) -> List[Tuple[Any, ...]]:
        """The deterministic command sequence for one client."""
        rng = Random(f"{self.seed}/{client_index}")
        commands: List[Tuple[Any, ...]] = []
        for i in range(self.requests_per_client):
            if self.hot_fraction and rng.random() < self.hot_fraction:
                key = "k0"
            else:
                key = f"k{rng.randrange(self.key_space)}"
            if rng.random() < 0.25:
                commands.append(("get", key))
            else:
                commands.append(("set", key, f"c{client_index}.{i}"))
        return commands

    @property
    def total_requests(self) -> int:
        return self.clients * self.requests_per_client


# ----------------------------------------------------------------------
# The scenario spec
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, reproducible execution description."""

    name: str
    protocol: str = "fbft"
    n: int = 4
    f: int = 1
    t: Optional[int] = None
    delay: DelaySpec = field(default_factory=DelaySpec)
    faults: Tuple[FaultEvent, ...] = ()
    byzantine: Tuple[ByzantineRole, ...] = ()
    workload: Optional[WorkloadSpec] = None
    #: Simulated-time budget for the run.
    timeout: float = 600.0
    #: Oracle expectations.
    expect_decision: bool = True
    expect_fast_path: bool = False
    liveness_deadline: Optional[float] = None
    #: Adapter-specific knobs (e.g. ``base_timeout``, or the deliberately
    #: unsafe ``fast_quorum_delta`` used by regression tests).
    protocol_options: Dict[str, Any] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(self, "byzantine", tuple(self.byzantine))

    # ------------------------------------------------------------------
    # Derived views of the schedule
    # ------------------------------------------------------------------

    @property
    def byzantine_pids(self) -> Tuple[int, ...]:
        return tuple(sorted(r.pid for r in self.byzantine))

    @property
    def crashed_forever_pids(self) -> Tuple[int, ...]:
        """Pids crashed by the schedule and never recovered."""
        down: set = set()
        for event in sorted(self.faults, key=lambda e: e.at):
            if isinstance(event, Crash):
                down.add(event.pid)
            elif isinstance(event, Recover):
                down.discard(event.pid)
        return tuple(sorted(down))

    @property
    def faulty_pids(self) -> Tuple[int, ...]:
        """Everyone the fault budget must cover: Byzantine + crashed.

        Only protocol participants (pids < n) count — a crashed SMR
        *client* (pid >= n) consumes no replica fault budget.
        """
        crashed = set(self.crashed_forever_pids)
        for event in self.faults:
            if isinstance(event, Crash):
                crashed.add(event.pid)  # even a recovered crash is a fault
        faulty = crashed | set(self.byzantine_pids)
        return tuple(sorted(pid for pid in faulty if pid < self.n))

    def validate(self) -> None:
        """Structural checks independent of the protocol adapter."""
        if self.n < 2:
            raise ScenarioError(f"n={self.n} too small")
        if self.f < 0:
            raise ScenarioError(f"f={self.f} must be >= 0")
        pids = set(range(self.n))
        for role in self.byzantine:
            if role.pid not in pids:
                raise ScenarioError(f"Byzantine pid {role.pid} not in 0..{self.n - 1}")
            if not set(role.minority) <= pids:
                raise ScenarioError(f"equivocation minority {role.minority} outside cluster")
        if len(set(self.byzantine_pids)) != len(self.byzantine):
            raise ScenarioError("duplicate Byzantine role pids")
        crashed_pids = set()
        for event in self.faults:
            if event.at < 0:
                raise ScenarioError(f"fault event before time 0: {event}")
            if isinstance(event, (Crash, Recover)):
                if event.pid not in pids and (
                    self.workload is None
                    or event.pid >= self.n + self.workload.clients
                ):
                    raise ScenarioError(f"fault event pid {event.pid} unknown: {event}")
                if isinstance(event, Crash):
                    crashed_pids.add(event.pid)
            if isinstance(event, PartitionStart):
                for group in event.groups:
                    if not set(group) <= pids:
                        raise ScenarioError(f"partition group {group} outside cluster")
        overlap = set(self.byzantine_pids) & crashed_pids
        if overlap:
            raise ScenarioError(
                f"pids {sorted(overlap)} are both Byzantine and schedule-crashed"
            )
        if len(self.faulty_pids) > self.f:
            raise ScenarioError(
                f"fault budget exceeded: {len(self.faulty_pids)} faulty pids "
                f"{self.faulty_pids} > f={self.f}"
            )

    # ------------------------------------------------------------------
    # Serialization (fuzz reproducers, CLI --json)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["faults"] = [
            {"event": type(e).__name__, **asdict(e)} for e in self.faults
        ]
        data["t"] = self.t
        if self.workload is None:
            data.pop("workload")
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        payload = dict(data)
        payload["delay"] = DelaySpec(**payload.get("delay", {}))
        faults: List[FaultEvent] = []
        for entry in payload.get("faults", ()):
            entry = dict(entry)
            event_cls = _EVENT_TYPES[entry.pop("event")]
            if "groups" in entry:
                entry["groups"] = tuple(tuple(g) for g in entry["groups"])
            faults.append(event_cls(**entry))
        payload["faults"] = tuple(faults)
        payload["byzantine"] = tuple(
            ByzantineRole(**dict(role, values=tuple(role["values"])))
            for role in payload.get("byzantine", ())
        )
        if payload.get("workload") is not None:
            payload["workload"] = WorkloadSpec(**payload["workload"])
        return cls(**payload)

    def with_(self, **changes: Any) -> "ScenarioSpec":
        """A modified copy (``dataclasses.replace`` with a shorter name)."""
        return replace(self, **changes)
