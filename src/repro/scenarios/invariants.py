"""Invariant oracles: what must hold of a finished scenario run.

Oracles are evaluated *post hoc* from the finished run, so they are
protocol-independent wherever possible and delegate to the adapter where
they are not (certificate audits).  Each returns an
:class:`InvariantVerdict` with ``passed`` being ``True``, ``False`` or
``None`` (not applicable to this spec/protocol) — a scenario "passes"
when no oracle returns ``False``.

What they need of the sends is tallied as the sends pass:
:func:`attach_audits` subscribes the quorum tally and the adapter's
certificate audit to the network's send hook before the run, and they
keep sender sets and error strings, not records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..sim.network import FanOut, Network
from ..sim.process import MESSAGE_FACTS
from ..sim.runner import Cluster
from ..sim.trace import message_delays
from .adapters import BuiltScenario, ProgressCertificateAudit
from .spec import Recover, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runner import ScenarioResult

__all__ = [
    "InvariantVerdict",
    "QuorumTally",
    "SendAudits",
    "attach_audits",
    "decisions_of",
    "durable_rejoin_sets",
    "evaluate_invariants",
]


def durable_rejoin_sets(spec: ScenarioSpec, built: BuiltScenario):
    """``(rejoining, baseline)`` replica lists for durable recoveries.

    ``rejoining`` — durable replicas the schedule crashes and recovers:
    they owe the cluster a full rejoin.  ``baseline`` — honest,
    never-crashed replicas: the standard the rejoiners are held to.
    One definition shared by the runner's stop condition (the run is not
    over until each rejoiner reaches the baseline's progress) and the
    ``catchup-consistency`` oracle (which then judges exactly that
    state) — the two must never drift apart.
    """
    recovered_pids = {
        event.pid
        for event in spec.faults
        if isinstance(event, Recover) and event.pid < spec.n
    }
    rejoining = [
        replica
        for replica in built.replicas
        if replica.pid in recovered_pids and replica.storage is not None
    ]
    baseline = [
        replica for replica in built.replicas if replica.pid in built.live_pids
    ]
    return rejoining, baseline


@dataclass(frozen=True)
class InvariantVerdict:
    """One oracle's judgement of one run.

    ``margin`` is a graded "distance to violation" where the oracle can
    measure one (votes short of a quorum, slack to the liveness timeout,
    message delays under the fast-path claim, demotions below the
    flapping bound).  Positive margins mean head-room, zero or negative
    means at-or-past the edge; ``None`` means the oracle has no graded
    signal for this run.  The coverage-guided fuzzer uses margins to
    steer schedules toward the edge of the safety envelope instead of
    seeing only a pass/fail bit.
    """

    name: str
    passed: Optional[bool]  # None = not applicable
    detail: str = ""
    margin: Optional[float] = None

    @property
    def failed(self) -> bool:
        return self.passed is False

    def __str__(self) -> str:
        status = {True: "PASS", False: "FAIL", None: "n/a "}[self.passed]
        suffix = f" — {self.detail}" if self.detail else ""
        return f"[{status}] {self.name}{suffix}"


def decisions_of(cluster: Cluster, pids) -> Dict[int, Any]:
    """The recorded decision values of ``pids`` (absent pids undecided)."""
    return {
        pid: decision.value
        for pid in pids
        if (decision := cluster.trace.decision_of(pid)) is not None
    }


# ----------------------------------------------------------------------
# The oracles
# ----------------------------------------------------------------------

class QuorumTally:
    """Send hook: distinct senders per ``(type, view, value)`` of every
    payload whose message-table row names a quorum attribute of the
    protocol's config (acks, votes, commits).

    :meth:`shortfall` is the graded "one more equivocation and this would
    have been a second decision" signal.
    """

    def __init__(self, config: Any) -> None:
        self._config = config
        self._tallies: Dict[Tuple[type, Any, str], Tuple[set, int]] = {}

    def add(self, record: FanOut) -> None:
        # A fan-out is one vote by one sender, however many it reached.
        payload = record.payload
        facts = MESSAGE_FACTS.get(type(payload))
        if facts is None or facts.quorum is None:
            return
        threshold = getattr(self._config, facts.quorum, None)
        if threshold is None:
            return
        view = getattr(payload, facts.view)
        key = (type(payload), view, repr(getattr(payload, "value", None)))
        senders, _ = self._tallies.setdefault(key, (set(), threshold))
        senders.add(record.src)

    def shortfall(self) -> Optional[float]:
        """Votes short of quorum for the closest incomplete tally;
        ``None`` when every tally completed (or none exists): the run
        never approached the edge."""
        shortfalls = [
            threshold - len(senders)
            for senders, threshold in self._tallies.values()
            if len(senders) < threshold
        ]
        if not shortfalls:
            return None
        return float(min(shortfalls))


@dataclass(frozen=True)
class SendAudits:
    """The oracles' send-hook subscribers for one run; ``None`` where the
    run has nothing to audit."""

    quorums: Optional[QuorumTally] = None
    certificates: Optional[ProgressCertificateAudit] = None


def attach_audits(built: BuiltScenario, network: Network) -> SendAudits:
    """Subscribe what the oracles need of the sends to ``network``; call
    before the run.

    A consensus run gets a :class:`QuorumTally` (the agreement oracle's
    margin) when its config names quorums, and its adapter's certificate
    audit if it has one.  An SMR run gets neither — its agreement is
    judged slot by slot from the replicas' logs — so it keeps nothing
    per send.
    """
    if built.mode == "smr":
        return SendAudits()
    quorums = None
    if built.config is not None:
        quorums = QuorumTally(built.config)
        network.add_send_hook(quorums.add)
    certificates = built.adapter.certificate_audit(built)
    if certificates is not None:
        network.add_send_hook(certificates.add)
    return SendAudits(quorums, certificates)


def check_agreement(
    spec: ScenarioSpec,
    built: BuiltScenario,
    cluster: Cluster,
    safety_violation: Optional[str],
    quorums: Optional[QuorumTally],
) -> InvariantVerdict:
    """No two honest processes decide differently (ever, in any view)."""
    if safety_violation is not None:
        return InvariantVerdict("agreement", False, safety_violation)
    if built.mode == "smr":
        return _check_smr_log_agreement(built)
    decided = decisions_of(cluster, built.honest_pids)
    values = set(decided.values())
    if len(values) > 1:
        return InvariantVerdict(
            "agreement", False, f"honest processes decided {decided!r}",
            margin=0.0,
        )
    return InvariantVerdict(
        "agreement", True, f"{len(decided)} honest decisions, all equal",
        margin=None if quorums is None else quorums.shortfall(),
    )


def _check_smr_log_agreement(built: BuiltScenario) -> InvariantVerdict:
    """Honest replicas never decide different commands for the same slot."""
    by_slot: Dict[int, Dict[Any, List[int]]] = {}
    for replica in built.replicas:
        for slot, command in replica.log:
            by_slot.setdefault(slot, {}).setdefault(command, []).append(replica.pid)
    conflicts = {
        slot: commands for slot, commands in by_slot.items() if len(commands) > 1
    }
    if conflicts:
        return InvariantVerdict(
            "agreement", False, f"conflicting slot decisions: {conflicts!r}"
        )
    return InvariantVerdict(
        "agreement", True, f"{len(by_slot)} slots consistent across replicas"
    )


def check_validity(
    spec: ScenarioSpec, built: BuiltScenario, cluster: Cluster
) -> InvariantVerdict:
    """Decided values come from the set the adversary could legitimately
    put in play (honest inputs plus declared Byzantine proposals)."""
    if built.allowed_values is None:
        return InvariantVerdict("validity", None, "no allowed-value set declared")
    if built.mode == "smr":
        from ..smr.kvstore import NOOP
        from ..smr.replica import commands_of

        allowed = set(built.allowed_values) | {NOOP}
        executed = {
            command
            for replica in built.replicas
            for _slot, value in replica.log
            for command in commands_of(value)
        }
        rogue = executed - allowed
        if rogue:
            return InvariantVerdict(
                "validity", False, f"executed commands nobody submitted: {rogue!r}"
            )
        return InvariantVerdict(
            "validity", True, f"{len(executed)} distinct commands, all submitted"
        )
    decided = decisions_of(cluster, built.honest_pids)
    rogue = set(decided.values()) - set(built.allowed_values)
    if rogue:
        return InvariantVerdict(
            "validity", False, f"decided values outside input set: {rogue!r}"
        )
    return InvariantVerdict("validity", True, "decisions drawn from the input set")


def check_no_duplicate_execution(
    spec: ScenarioSpec, built: BuiltScenario, cluster: Cluster
) -> InvariantVerdict:
    """No replica applies the same ``(client, request_id)`` twice.

    Each replica records every state-machine application tagged by the
    request key (gossip-adopted work included); a duplicate tag means a
    re-proposed command slipped past execution dedup — the
    double-execution bug class this oracle exists to catch.
    """
    name = "no-duplicate-execution"
    if built.mode != "smr":
        return InvariantVerdict(name, None, "consensus mode has no execution")
    duplicates: Dict[int, List[Tuple[Any, ...]]] = {}
    total = 0
    for replica in built.replicas:
        total += len(replica.applied_keys)
        seen: set = set()
        for key in replica.applied_keys:
            if key in seen:
                duplicates.setdefault(replica.pid, []).append(key)
            seen.add(key)
    if duplicates:
        return InvariantVerdict(
            name, False, f"requests applied twice: {duplicates!r}"
        )
    return InvariantVerdict(
        name, True, f"{total} applications across replicas, all distinct"
    )


def check_catchup_consistency(
    spec: ScenarioSpec, built: BuiltScenario, cluster: Cluster
) -> InvariantVerdict:
    """A recovered durable replica must equal a never-crashed one.

    After crash recovery (checkpoint restore + WAL replay, plus peer
    catchup when the disk was lost), the recovered replica's application
    state digest and executed prefix must match the most-advanced
    honest, never-crashed replica — recovery that "works" but rebuilds
    different state is the failure mode this oracle exists to catch.
    Applies only to durable replicas: legacy in-memory recovery makes no
    catchup promise.
    """
    from ..storage.checkpoint import state_digest

    name = "catchup-consistency"
    if built.mode != "smr":
        return InvariantVerdict(name, None, "consensus mode has no replica state")
    rejoining, baseline = durable_rejoin_sets(spec, built)
    if not rejoining:
        return InvariantVerdict(name, None, "no recovered durable replicas")
    if not baseline:
        return InvariantVerdict(name, None, "no never-crashed honest replica to compare")
    reference = max(baseline, key=lambda r: r.executed_upto)
    reference_digest = state_digest(reference.state_machine.snapshot())
    problems = []
    for replica in rejoining:
        digest = state_digest(replica.state_machine.snapshot())
        if replica.executed_upto < reference.executed_upto:
            problems.append(
                f"pid {replica.pid} executed up to {replica.executed_upto}, "
                f"reference pid {reference.pid} reached {reference.executed_upto}"
            )
        elif digest != reference_digest:
            problems.append(
                f"pid {replica.pid} state digest {digest[:16]} != "
                f"reference {reference_digest[:16]}"
            )
    if problems:
        return InvariantVerdict(name, False, "; ".join(problems))
    return InvariantVerdict(
        name, True,
        f"{len(rejoining)} recovered replica(s) match pid {reference.pid} "
        f"at slot {reference.executed_upto}",
    )


def check_certificates(
    audit: Optional[ProgressCertificateAudit],
) -> InvariantVerdict:
    """Adapter-specific audit of transferable artifacts in the sends."""
    if audit is None:
        return InvariantVerdict(
            "certificates", None, "protocol has no transferable certificates"
        )
    if audit.errors:
        return InvariantVerdict(
            "certificates", False, "; ".join(audit.errors[:3])
        )
    return InvariantVerdict("certificates", True, "all traced certificates valid")


def check_fast_path(
    spec: ScenarioSpec,
    built: BuiltScenario,
    cluster: Cluster,
    decided: bool,
    decision_time: Optional[float],
) -> InvariantVerdict:
    """When the spec claims the common case, the decision must land within
    the family's claimed number of message delays."""
    if not spec.expect_fast_path:
        return InvariantVerdict("fast-path-steps", None, "not expected by spec")
    if not spec.delay.counts_steps:
        return InvariantVerdict(
            "fast-path-steps", None, f"delay kind {spec.delay.kind!r} has no step metric"
        )
    if not decided or decision_time is None:
        return InvariantVerdict("fast-path-steps", False, "no decision to measure")
    steps = message_delays(decision_time, spec.delay.delta)
    claimed = built.adapter.claimed_fast_delays
    if steps > claimed:
        return InvariantVerdict(
            "fast-path-steps", False,
            f"decision took {steps} message delays, claimed {claimed}",
            margin=float(claimed - steps),
        )
    return InvariantVerdict(
        "fast-path-steps", True, f"{steps} message delays <= claimed {claimed}",
        margin=float(claimed - steps),
    )


def check_liveness(
    spec: ScenarioSpec,
    built: BuiltScenario,
    cluster: Cluster,
    decided: bool,
    decision_time: Optional[float],
    safety_violation: Optional[str] = None,
) -> InvariantVerdict:
    """After GST (and after every scheduled fault has settled), every
    correct, never-crashed process must decide within the time budget."""
    if not spec.expect_decision:
        return InvariantVerdict("liveness-after-gst", None, "not expected by spec")
    if safety_violation is not None:
        return InvariantVerdict(
            "liveness-after-gst", None, "run aborted by a safety violation"
        )
    if built.mode == "smr":
        crashed = set(spec.crashed_forever_pids)
        live_clients = [c for c in built.clients if c.pid not in crashed]
        incomplete = [c.pid for c in live_clients if not c.all_completed]
        if incomplete:
            return InvariantVerdict(
                "liveness-after-gst", False,
                f"clients {incomplete} did not complete within {spec.timeout}",
            )
        return InvariantVerdict(
            "liveness-after-gst", True,
            f"all {len(live_clients)} live clients completed",
        )
    if not decided:
        missing = [
            pid
            for pid in built.live_pids
            if cluster.trace.decision_of(pid) is None
        ]
        return InvariantVerdict(
            "liveness-after-gst", False,
            f"pids {missing} undecided at timeout {spec.timeout}",
            margin=0.0,
        )
    deadline = spec.liveness_deadline
    if deadline is not None and decision_time is not None and decision_time > deadline:
        return InvariantVerdict(
            "liveness-after-gst", False,
            f"decided at {decision_time}, after the deadline {deadline}",
            margin=0.0,
        )
    detail = f"all live pids decided by {decision_time}"
    if deadline is not None:
        detail += f" (deadline {deadline})"
    # Slack to the timeout as a fraction of the budget: 1.0 = decided
    # instantly, 0.0 = at the wire — the fuzzer's pull toward schedules
    # that nearly exhaust the liveness budget.
    margin = None
    if decision_time is not None and spec.timeout > 0:
        margin = round(max(0.0, 1.0 - decision_time / spec.timeout), 4)
    return InvariantVerdict("liveness-after-gst", True, detail, margin=margin)


def check_leader_rotation(
    spec: ScenarioSpec, built: BuiltScenario, cluster: Cluster
) -> InvariantVerdict:
    """The performance monitor rotates slow leaders — and only those.

    Applies to SMR runs with the ``monitor`` protocol option.  The spec
    declares intent through ``monitor_expect_rotation``: when true, at
    least one honest replica must have observed a completed demotion
    (its view floor rose past the degraded leader); when false, none may
    — a demotion under healthy leadership is flapping, the failure mode
    the drain-rate baseline and cooldown exist to prevent.  Either way,
    no replica may demote more than twice in one run (bounded rotation,
    not oscillation).
    """
    name = "leader-rotation-liveness"
    if built.mode != "smr":
        return InvariantVerdict(name, None, "consensus mode has no monitor")
    monitored = [r for r in built.replicas if r.leader_monitor is not None]
    if not monitored:
        return InvariantVerdict(name, None, "monitor not enabled by spec")
    expect = bool(spec.protocol_options.get("monitor_expect_rotation", False))
    demotions = {r.pid: r.leader_monitor.demotions for r in monitored}
    # Demotions below the flapping bound: 2 = never rotated, 0 = at the
    # oscillation edge, negative = oscillating.
    rotation_margin = float(2 - max(demotions.values(), default=0))
    flapping = {pid: count for pid, count in demotions.items() if count > 2}
    if flapping:
        return InvariantVerdict(
            name, False, f"leader rotation oscillated: {flapping!r} demotions",
            margin=rotation_margin,
        )
    total = sum(demotions.values())
    if expect and total == 0:
        return InvariantVerdict(
            name, False,
            "spec expected the slow leader to be demoted; no replica rotated",
        )
    if not expect and total > 0:
        return InvariantVerdict(
            name, False,
            f"monitor demoted a healthy leader (flapping): {demotions!r}",
        )
    floors = sorted({r.leader_monitor.view_floor for r in monitored})
    if expect:
        return InvariantVerdict(
            name, True,
            f"slow leader demoted; view floors {floors}, "
            f"{total} demotion(s) across {len(monitored)} replicas",
            margin=rotation_margin,
        )
    return InvariantVerdict(
        name, True, f"no spurious demotions across {len(monitored)} replicas",
        margin=rotation_margin,
    )


def evaluate_invariants(
    spec: ScenarioSpec,
    built: BuiltScenario,
    cluster: Cluster,
    audits: SendAudits,
    decided: bool,
    decision_time: Optional[float],
    safety_violation: Optional[str],
) -> Tuple[InvariantVerdict, ...]:
    """Run every oracle; order is stable (agreement first).  ``audits``
    is what :func:`attach_audits` subscribed before the run."""
    return (
        check_agreement(spec, built, cluster, safety_violation, audits.quorums),
        check_validity(spec, built, cluster),
        check_no_duplicate_execution(spec, built, cluster),
        check_catchup_consistency(spec, built, cluster),
        check_certificates(audits.certificates),
        check_fast_path(spec, built, cluster, decided, decision_time),
        check_liveness(spec, built, cluster, decided, decision_time, safety_violation),
        check_leader_rotation(spec, built, cluster),
    )
