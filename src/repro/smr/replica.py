"""State machine replication on top of the consensus core.

Each log *slot* is decided by an independent instance of the paper's
consensus protocol; replicas multiplex the instances over one network by
wrapping every protocol message in a :class:`SlotMessage`.  The design:

* clients broadcast :class:`Request` messages; every replica queues them
  (deduplicating by ``(client, request_id)``);
* slots decide :class:`Batch` values — ordered tuples of
  ``(client, request_id, command)`` entries.  A replica packs up to
  ``batch_size`` pending commands into each proposal and may hold an
  under-full batch open for ``batch_timeout`` (see
  :class:`~repro.core.config.ReplicationConfig`); the instance's input is
  the replica's own batch of oldest unassigned commands (``NOOP`` if
  none), so whoever ends up leading the slot — including after view
  changes when the original leader crashed — proposes real work;
* up to ``pipeline_depth`` consensus instances run concurrently;
  decisions are applied to the state machine strictly in slot order
  regardless, and answered to clients with :class:`Reply`; a client
  accepts a result once ``f + 1`` replicas agree on it;
* replicas gossip :class:`SlotDecided` notifications; ``f + 1`` matching
  notifications are adopted as a decision (at most ``f`` Byzantine, so at
  least one sender is correct), which lets lagging replicas catch up and
  lets instances stop their pacemakers after deciding.

Execution deduplicates by ``(client, request_id)``: a command adopted
via gossip before its :class:`Request` arrived is recorded just like a
locally known one, so the late request is answered from the result cache
instead of being re-proposed (and the state machine never applies the
same request twice).  Crashing a replica halts the per-slot contexts and
their timers along with the parent (see
:meth:`~repro.sim.process.ProcessContext.adopt`), matching the
crash-recovery model of the scenario engine.

With a :class:`~repro.core.config.DurabilityConfig` the replica becomes
*durable* (see :mod:`repro.storage`): every adopted decision is appended
to a write-ahead log before it takes effect, application state is
checkpointed every ``checkpoint_interval`` slots and certified by
``2f + 1`` signed checkpoint votes, and the WAL plus the execution and
result caches are compacted up to the stable checkpoint.  Recovery then
*rebuilds* the replica from storage (checkpoint restore + WAL replay)
instead of resurrecting whatever volatile state survived in memory, and
a recovering or lagging replica catches the cluster up through the peer
state-transfer protocol of :mod:`repro.storage.catchup` — tolerating
Byzantine responders by certificate validation and ``f + 1``
cross-checking.

The SMR layer is deliberately protocol-agnostic: it accepts any factory
producing a :class:`~repro.core.protocol.DecidingProcess`-compatible
consensus instance (ours, or a baseline for comparison benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.certificates import (
    CheckpointCertificate,
    checkpoint_certificate_valid,
)
from ..core.config import (
    DurabilityConfig,
    MonitorConfig,
    ProtocolConfig,
    ReplicationConfig,
)
from ..core.generalized import GeneralizedFBFTProcess
from ..core.payloads import checkpoint_payload, demotion_payload
from ..core.quorums import majority_correct, one_correct
from ..crypto.keys import KeyRegistry, Signer
from ..obs.monitor import DemotionVote, LeaderMonitor
from ..sim.process import Process, ProcessContext
from ..storage.catchup import CatchupManager, CatchupReply, CatchupRequest
from ..storage.checkpoint import (
    Checkpoint,
    CheckpointManager,
    CheckpointVote,
    state_digest,
)
from ..storage.store import ReplicaStorage
from .kvstore import NOOP, Command, StateMachine

__all__ = [
    "Batch",
    "Request",
    "Reply",
    "SlotMessage",
    "SlotDecided",
    "SMRReplica",
    "commands_of",
    "fbft_instance_factory",
]

#: The ``(client, request_id)`` identity of one submitted command.
RequestKey = Tuple[int, int]


@dataclass(frozen=True)
class Request:
    """Client command submission."""

    client: int
    request_id: int
    command: Command


@dataclass(frozen=True)
class Reply:
    """Replica's answer after executing the command."""

    client: int
    request_id: int
    result: Any
    slot: int


@dataclass(frozen=True)
class Batch:
    """An ordered tuple of commands decided together in one slot.

    Entries carry the submitting client's identity, so a replica that
    learns a batch through gossip (never having seen the underlying
    requests) can still reply, cache results and deduplicate.
    """

    entries: Tuple[Tuple[int, int, Command], ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def commands(self) -> Tuple[Command, ...]:
        return tuple(command for _, _, command in self.entries)

    @property
    def keys(self) -> Tuple[RequestKey, ...]:
        return tuple((client, rid) for client, rid, _ in self.entries)

    def signing_fields(self) -> Tuple[Any, ...]:
        return (self.entries,)


def commands_of(value: Any) -> Tuple[Command, ...]:
    """The commands a decided slot value carries: a :class:`Batch`'s.

    ``NOOP`` carries none, and neither does any other value — the engine
    proposes only batches, so only a Byzantine proposer can get one
    decided, and every correct replica then applies nothing for it.
    """
    return value.commands if isinstance(value, Batch) else ()


@dataclass(frozen=True)
class SlotMessage:
    """A consensus protocol message scoped to one log slot."""

    slot: int
    inner: Any


@dataclass(frozen=True)
class SlotDecided:
    """Decision gossip: ``f + 1`` matching ones are adopted."""

    slot: int
    value: Any


class _SlotContext(ProcessContext):
    """Process context adapter that scopes one consensus instance to a slot.

    Outgoing payloads are wrapped in :class:`SlotMessage`; timer names are
    prefixed so instances do not trample each other's timers.  The parent
    context adopts each slot context, so a crash of the replica halts the
    slot's timers too (and recovery resumes them both).  It releases the
    context when the replica drops the instance: once the slot's decision
    is adopted (its pacemaker stopped first), or when a durable replica
    rebuilds from storage.
    """

    def __init__(self, slot: int, parent: ProcessContext) -> None:
        super().__init__(parent.pid, parent.sim, parent.network)
        self._slot = slot
        self._parent = parent
        #: Timer-name prefix, rendered once: per-slot pacemakers arm and
        #: cancel timers constantly, and an f-string per call adds up.
        self._timer_prefix = f"slot{slot}:"
        self.observer = parent.observer
        parent.adopt(self)

    def send(self, dst: int, payload: Any) -> None:
        if self.halted or self._parent.halted:
            return
        self.network.send(self.pid, dst, SlotMessage(self._slot, payload))

    def broadcast(self, payload: Any, include_self: bool = True) -> None:
        if self.halted or self._parent.halted:
            return
        self.network.broadcast(
            self.pid, SlotMessage(self._slot, payload), include_self=include_self
        )

    def set_timer(self, name: str, delay: float, callback) -> Any:
        return super().set_timer(self._timer_prefix + name, delay, callback)

    def cancel_timer(self, name: str) -> None:
        super().cancel_timer(self._timer_prefix + name)

    def has_timer(self, name: str) -> bool:
        return super().has_timer(self._timer_prefix + name)


#: Builds one consensus instance: (pid, slot, input_value) -> process.
InstanceFactory = Callable[[int, int, Any], Any]


def fbft_instance_factory(
    config: ProtocolConfig,
    registry: KeyRegistry,
    base_timeout: float = 12.0,
) -> InstanceFactory:
    """Default factory: one generalized-protocol instance per slot."""

    def factory(pid: int, slot: int, input_value: Any) -> GeneralizedFBFTProcess:
        return GeneralizedFBFTProcess(
            pid,
            config,
            registry,
            input_value,
            base_timeout=base_timeout,
        )

    return factory


class SMRReplica(Process):
    """One replica of the batched, pipelined replicated state machine."""

    # Staleness is the handlers' business (slot, checkpoint, view floor);
    # a slot's consensus messages pass through its instance's table.
    MESSAGES = (
        (Request, "_handle_request", "none", "request", None),
        (SlotMessage, "_handle_slot_message", "none", "inner", None),
        (SlotDecided, "_handle_slot_decided", "none", "decide-gossip", None),
        (CheckpointVote, "_handle_checkpoint_vote", "none", "checkpoint-vote", None),
        (DemotionVote, "_handle_demotion_vote", "none", "demotion-vote", None),
        (CatchupRequest, "_handle_catchup_request", "none", "catchup-request", None),
        (CatchupReply, "_handle_catchup_reply", "none", "catchup-reply", None),
    )

    def __init__(
        self,
        pid: int,
        n: int,
        f: int,
        state_machine: StateMachine,
        instance_factory: InstanceFactory,
        replication: Optional[ReplicationConfig] = None,
        max_slots: Optional[int] = None,
        durability: Optional[DurabilityConfig] = None,
        registry: Optional[KeyRegistry] = None,
        monitor: Optional[MonitorConfig] = None,
    ) -> None:
        super().__init__(pid)
        self.n = n
        self.f = f
        self.state_machine = state_machine
        self.instance_factory = instance_factory
        self.replication = replication or ReplicationConfig()
        if max_slots is not None:
            from dataclasses import replace

            self.replication = replace(self.replication, max_slots=max_slots)
        # -- durability (all three stay None/absent for a legacy replica)
        self.durability = durability
        self.storage: Optional[ReplicaStorage] = (
            ReplicaStorage() if durability is not None else None
        )
        self._registry = registry
        self._signer: Optional[Signer] = (
            registry.signer(pid) if registry is not None else None
        )
        interval = durability.checkpoint_interval if durability else 1
        self._checkpoints = CheckpointManager(interval)
        self._catchup = CatchupManager()
        #: slot -> its consensus instance, for undecided slots only: a
        #: decided slot's instance can never act again, so adopting the
        #: decision drops it (see :meth:`_adopt_decision`).
        self._instances: Dict[int, Any] = {}
        #: The highest view any dropped instance reached (see
        #: :attr:`highest_view`).
        self._retired_view = 1
        self._pending: List[Request] = []
        self._seen_requests: Set[RequestKey] = set()
        self._decided: Dict[int, Any] = {}
        #: Decided slots above ``_executed_upto`` (adopted out of order,
        #: waiting for a gap to fill): the only part of the (never-pruned)
        #: log a proposal flush has to look at.
        self._decided_unexecuted: Set[int] = set()
        self._decide_gossip: Dict[int, Dict[Any, Set[int]]] = {}
        self._executed_upto = -1  # highest contiguously applied slot
        self._results: Dict[RequestKey, Tuple[Any, int]] = {}
        self._executed_requests: Set[RequestKey] = set()
        #: slot -> request keys packed into OUR input batch for that slot;
        #: entries for undecided slots keep those requests out of newer
        #: proposals so concurrent slots carry disjoint work.
        self._assigned: Dict[int, Tuple[RequestKey, ...]] = {}
        self._batch_deadline: Optional[float] = None
        #: Every state-machine application, in order, tagged by request
        #: key — the no-duplicate-execution oracle's evidence.
        self.applied_keys: List[Tuple[Any, ...]] = []
        # -- leader-performance monitor (absent by default; see repro.obs).
        #    Everything else that watches a replica subscribes to the
        #    cluster's observer, which the replica finds on its context:
        #    ``self.ctx.observer`` is ``None`` while nobody listens.
        self.monitor_config = monitor
        self._monitor: Optional[LeaderMonitor] = (
            LeaderMonitor(pid, n, monitor) if monitor is not None else None
        )
        #: view -> senders of valid demotion votes for entering that view.
        self._demotion_votes: Dict[int, Set[int]] = {}
        #: views this replica already cast its own demotion vote for.
        self._demotion_voted: Set[int] = set()
        #: request key -> local arrival time (the monitor's queue-delay
        #: observation; only populated when it is active).
        self._arrival_times: Dict[RequestKey, float] = {}

    # ------------------------------------------------------------------
    # Introspection (used by tests and examples)
    # ------------------------------------------------------------------

    @property
    def log(self) -> Tuple[Tuple[int, Any], ...]:
        """Decided (slot, value) pairs in slot order."""
        return tuple(sorted(self._decided.items()))

    @property
    def executed_upto(self) -> int:
        return self._executed_upto

    @property
    def inflight_instances(self) -> int:
        """Consensus instances currently running for undecided slots."""
        return len(self._instances)

    @property
    def highest_view(self) -> int:
        """The highest view any of this replica's instances reached since
        it started (or last rebuilt from storage), dropped ones included."""
        return max([
            self._retired_view,
            *(getattr(inst, "view", 1) for inst in self._instances.values()),
        ])

    @property
    def stable_checkpoint_slot(self) -> int:
        """Highest stable-checkpoint slot (``-1`` before the first)."""
        return self._checkpoints.stable_slot

    @property
    def catchup_active(self) -> bool:
        """Whether the replica is mid state transfer from peers."""
        return self._catchup.active

    @property
    def checkpoint_quorum(self) -> int:
        """Votes that make a checkpoint stable: ``2f + 1`` — a majority
        of them are correct, so compacting below it never strands the
        cluster, and a certificate built from them convinces any
        recovering replica."""
        return majority_correct(self.f)

    @property
    def leader_monitor(self) -> Optional[LeaderMonitor]:
        """The performance monitor, when configured (see ``repro.obs``)."""
        return self._monitor

    @property
    def demotion_quorum(self) -> int:
        """Demotion votes that force a view change: ``2f + 1`` — at most
        ``f`` Byzantine replicas can neither fabricate a demotion nor
        (with ``2f + 1`` correct voters available) veto one."""
        return majority_correct(self.f)

    def monitor_stats(self) -> Optional[Dict[str, Any]]:
        """Monitor snapshot (view floor, votes, window means) or ``None``."""
        return self._monitor.stats() if self._monitor is not None else None

    def decided_value(self, slot: int) -> Optional[Any]:
        return self._decided.get(slot)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def _handle_request(self, sender: int, request: Request) -> None:
        key = (request.client, request.request_id)
        if key in self._seen_requests:
            # Retransmission: if already executed, re-reply immediately.
            if key in self._results:
                result, slot = self._results[key]
                self.send(
                    request.client,
                    Reply(
                        client=request.client,
                        request_id=request.request_id,
                        result=result,
                        slot=slot,
                    ),
                )
            return
        self._seen_requests.add(key)
        emit = self.ctx.observer
        if emit is not None:
            emit("request", self.pid, None, None, key)
        if self._monitor is not None:
            self._arrival_times[key] = self.now
        self._pending.append(request)
        self._schedule_proposal_flush()

    def _handle_slot_message(self, sender: int, message: SlotMessage) -> None:
        instance = self._ensure_instance(message.slot)
        if instance is not None:
            instance._dispatch(sender, message.inner)

    def _handle_slot_decided(self, sender: int, message: SlotDecided) -> None:
        if message.slot in self._decided:
            return
        per_value = self._decide_gossip.setdefault(message.slot, {})
        senders = per_value.setdefault(message.value, set())
        senders.add(sender)
        if len(senders) >= one_correct(self.f):
            self._adopt_decision(message.slot, message.value)

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------

    def _unassigned_pending(self) -> List[Request]:
        """Pending requests not packed into any undecided slot's proposal
        and not already sitting in a decided-but-unexecuted batch."""
        assigned: Set[RequestKey] = set()
        for slot, keys in self._assigned.items():
            if slot not in self._decided:
                assigned.update(keys)
        # A slot adopted out of order (e.g. via gossip) is decided but not
        # yet executed, so its requests are still in _pending; re-proposing
        # them would burn a whole consensus instance on duplicates.
        for slot in self._decided_unexecuted:
            value = self._decided[slot]
            if isinstance(value, Batch):
                assigned.update(value.keys)
        return [
            r for r in self._pending if (r.client, r.request_id) not in assigned
        ]

    def _next_unstarted_slot(self) -> int:
        slot = self._executed_upto + 1
        while slot in self._decided or slot in self._instances:
            slot += 1
        return slot

    def _make_batch(self, requests: List[Request], slot: int) -> Batch:
        keys = self._assigned[slot] = tuple(
            (r.client, r.request_id) for r in requests
        )
        emit = self.ctx.observer
        if emit is not None:
            emit("batched", self.pid, slot, None, keys)
        if self._arrival_times:
            # Queue delay (arrival -> packed into a batch) is the
            # monitor's backlog-drain baseline: it reflects *this
            # replica's* load, not the leader's speed — which is exactly
            # why it can serve as the degradation reference.
            now = self.now
            mon = self._monitor
            for key in keys:
                arrived = self._arrival_times.pop(key, None)
                if arrived is not None:
                    mon.note_queue_delay(now, now - arrived)
        return Batch(
            entries=tuple(
                (r.client, r.request_id, r.command) for r in requests
            )
        )

    def _schedule_proposal_flush(self) -> None:
        """Coalesce same-instant request arrivals into one proposal round.

        Requests delivered at the same simulated time are separate events;
        proposing from each handler would scatter them over single-command
        slots.  A zero-delay timer runs after every delivery scheduled for
        this instant, so one flush sees the whole burst (and a crash
        cancels it like any other timer).
        """
        if not self.ctx.has_timer("proposal-flush"):
            self.ctx.set_timer("proposal-flush", 0.0, self._maybe_start_slots)

    def _maybe_start_slots(self) -> None:
        """Open consensus instances for pending work, up to the pipeline
        depth, packing up to ``batch_size`` commands per slot."""
        if self._catchup.active:
            # Mid state-transfer the next-free-slot estimate is stale:
            # proposing would re-run consensus for slots peers already
            # decided.  Pending work is proposed once catchup finishes.
            return
        cfg = self.replication
        while True:
            backlog = self._unassigned_pending()
            if not backlog:
                self._batch_deadline = None
                return
            if self.inflight_instances >= cfg.pipeline_depth:
                return
            if len(backlog) < cfg.batch_size and cfg.batch_timeout > 0:
                # Hold the under-full batch open until the deadline.
                if self._batch_deadline is None:
                    self._batch_deadline = self.now + cfg.batch_timeout
                    self.ctx.set_timer(
                        "batch-flush", cfg.batch_timeout, self._maybe_start_slots
                    )
                    return
                if self.now < self._batch_deadline:
                    if not self.ctx.has_timer("batch-flush"):
                        # A crash wiped the flush timer but left the
                        # deadline; re-arm or the batch never closes.
                        self.ctx.set_timer(
                            "batch-flush",
                            self._batch_deadline - self.now,
                            self._maybe_start_slots,
                        )
                    return
            if self._batch_deadline is not None:
                self._batch_deadline = None
                self.ctx.cancel_timer("batch-flush")
            slot = self._next_unstarted_slot()
            batch = self._make_batch(backlog[: cfg.batch_size], slot)
            self._create_instance(slot, batch)

    def _ensure_instance(self, slot: int) -> Optional[Any]:
        if slot in self._decided:
            return None
        instance = self._instances.get(slot)
        if instance is not None:
            return instance
        backlog = self._unassigned_pending()[: self.replication.batch_size]
        if backlog:
            input_value: Any = self._make_batch(backlog, slot)
        else:
            input_value = NOOP
        return self._create_instance(slot, input_value)

    def _create_instance(self, slot: int, input_value: Any) -> Any:
        if slot >= self.replication.max_slots:
            raise RuntimeError(
                f"slot {slot} exceeds max_slots={self.replication.max_slots}"
            )
        instance = self.instance_factory(self.pid, slot, input_value)
        ctx = _SlotContext(slot, self.ctx)
        instance.attach(ctx)
        instance.decision_hook = partial(self._adopt_decision, slot)
        if self.storage is not None or self.ctx.observer is not None:
            instance.view_hook = partial(self._on_view_entered, slot)
        self._instances[slot] = instance
        mon = self._monitor
        if mon is not None:
            mon.note_slot_opened(slot, self.now)
        instance._start()
        if mon is not None and mon.view_floor > 1:
            # Every instance starts at view 1, so a demotion must carry
            # over to slots opened after it — otherwise each new slot
            # would re-elect the very leader the cluster just demoted.
            self._advocate_view(instance, mon.view_floor, slot=slot)
        return instance

    def _on_view_entered(self, slot: int, view: int) -> None:
        """The slot's instance is entering ``view`` (its ``view_hook``):
        record it in the WAL (durable replicas) and tell the observer.

        Replay does not consume the WAL records — an unfinished instance
        restarts from view 1, which is always safe — but they are part
        of the durable record the log compaction accounts for (and
        recovery forensics: how contested a slot was before the crash).
        """
        if self.storage is not None:
            self.storage.wal.append_view_change(slot, view)
        emit = self.ctx.observer
        if emit is not None:
            emit("view-change", self.pid, slot, view)

    def _adopt_decision(self, slot: int, value: Any) -> None:
        if slot in self._decided:
            return
        emit = self.ctx.observer
        if emit is not None:
            emit("decide", self.pid, slot, None, value)
        if self.storage is not None:
            # Write-ahead: the decision is on disk before it takes any
            # effect, so replay after a disk-retained crash reconstructs
            # exactly what this replica committed to.
            self.storage.wal.append_decide(slot, value)
            if emit is not None:
                emit("wal-append", self.pid, slot, None, "decide")
        self._decided[slot] = value
        if slot > self._executed_upto:
            self._decided_unexecuted.add(slot)
        self._assigned.pop(slot, None)
        self._decide_gossip.pop(slot, None)
        # A decided slot's instance can never act again (no message is
        # routed to it): stop its pacemaker, the one thing that arms its
        # timers, then drop it and release its context.
        instance = self._instances.pop(slot, None)
        if instance is not None:
            if hasattr(instance, "pacemaker"):
                instance.pacemaker.stop()
            view = getattr(instance, "view", 1)
            if view > self._retired_view:
                self._retired_view = view
            self.ctx.release(instance.ctx)
        mon = self._monitor
        if mon is not None:
            latency = mon.note_slot_decided(slot, self.now)
            if latency is not None and emit is not None:
                emit("slot-latency", self.pid, slot, None, latency)
            # Check on every decision: a slow-but-live leader keeps
            # decisions (not timeouts) flowing, so this is the signal
            # that actually fires for the degradation the paper's
            # timeout machinery never sees.
            self._maybe_vote_demotion()
        if not self._catchup.active:
            self.broadcast(SlotDecided(slot=slot, value=value), include_self=False)
        self._execute_ready()
        if self._catchup.active:
            # Gap slots during state transfer are not missing work — they
            # are decided slots still in flight from the peers' replies;
            # starting instances for them would re-run settled consensus.
            self._maybe_finish_catchup()
            return
        # An out-of-order decision (gossip, or a slot number steered far
        # ahead by a Byzantine sender) leaves gap slots below it: start
        # instances for them, or execution would never reach this slot —
        # its requests are parked (excluded from new proposals) and nobody
        # would ever propose the gaps.
        for gap in range(self._executed_upto + 1, slot):
            if gap not in self._decided and gap not in self._instances:
                self._ensure_instance(gap)
        self._maybe_start_slots()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute_ready(self) -> None:
        """Apply decided values strictly in slot order."""
        while (self._executed_upto + 1) in self._decided:
            slot = self._executed_upto + 1
            value = self._decided[slot]
            self._executed_upto = slot
            self._decided_unexecuted.discard(slot)
            self._execute(slot, value)
            if self.storage is not None and self._checkpoints.boundary(slot):
                self._initiate_checkpoint(slot)

    def _execute(self, slot: int, value: Any) -> None:
        # Only a Batch applies anything (see ``commands_of``).
        if isinstance(value, Batch):
            self._execute_batch(slot, value)

    def _execute_batch(self, slot: int, batch: Batch) -> None:
        keys = set(batch.keys)
        self._pending = [
            r for r in self._pending if (r.client, r.request_id) not in keys
        ]
        applied = 0
        for client, request_id, command in batch.entries:
            key = (client, request_id)
            # The batch carries the submitter's identity, so even a batch
            # adopted through gossip (request never seen) is recorded: a
            # late request is then a cache hit, not a re-proposal.
            self._seen_requests.add(key)
            if key in self._executed_requests:
                continue  # duplicate decision of a re-proposed command
            self._executed_requests.add(key)
            result = self.state_machine.apply(command)
            self.applied_keys.append(key)
            applied += 1
            self._results[key] = (result, slot)
            self.send(
                client,
                Reply(
                    client=client,
                    request_id=request_id,
                    result=result,
                    slot=slot,
                ),
            )
        emit = self.ctx.observer
        if emit is not None:
            emit("executed", self.pid, slot, None, applied)

    # ------------------------------------------------------------------
    # Checkpoints (durable replicas only)
    # ------------------------------------------------------------------

    def _initiate_checkpoint(self, slot: int) -> None:
        """Snapshot the state machine after executing ``slot`` and vote.

        The snapshot is kept pending until ``checkpoint_quorum`` votes
        agree on its digest — state keeps advancing meanwhile, so the
        vote must bind the state *as of this slot*, not as of whenever
        the quorum completes.
        """
        snapshot = self.state_machine.snapshot()
        digest = state_digest(snapshot)
        self._checkpoints.record_local(slot, snapshot, digest)
        signature = (
            self._signer.sign(checkpoint_payload(slot, digest))
            if self._signer is not None
            else None
        )
        vote = CheckpointVote(slot=slot, digest=digest, signature=signature)
        emit = self.ctx.observer
        if emit is not None:
            # The broadcast excludes self, so the local tally needs its
            # own event for the quorum's causal record to be complete.
            emit("checkpoint-vote", self.pid, slot)
        self.broadcast(vote, include_self=False)
        self._record_checkpoint_vote(self.pid, vote, verify=False)

    def _handle_checkpoint_vote(self, sender: int, vote: CheckpointVote) -> None:
        self._record_checkpoint_vote(sender, vote, verify=True)

    def _record_checkpoint_vote(
        self, sender: int, vote: CheckpointVote, verify: bool
    ) -> None:
        if self.storage is None:
            return
        if vote.slot <= self._checkpoints.stable_slot:
            return
        if verify and self._registry is not None:
            signature = vote.signature
            if (
                signature is None
                or signature.signer != sender
                or not self._registry.verify(
                    signature, checkpoint_payload(vote.slot, vote.digest)
                )
            ):
                return
        self._checkpoints.record_vote(
            vote.slot, vote.digest, sender, vote.signature
        )
        self._maybe_stabilize(vote.slot, vote.digest)

    def _maybe_stabilize(self, slot: int, digest: str) -> None:
        ready = self._checkpoints.ready(slot, digest, self.checkpoint_quorum)
        if ready is None:
            return
        snapshot, signatures = ready
        cert = (
            CheckpointCertificate(slot=slot, digest=digest, signatures=signatures)
            if self._registry is not None
            else None
        )
        self._make_stable(
            Checkpoint(slot=slot, state=snapshot, digest=digest, cert=cert)
        )

    def _make_stable(self, checkpoint: Checkpoint) -> None:
        """Persist a stable checkpoint and compact everything below it."""
        self._checkpoints.install_stable(checkpoint)
        emit = self.ctx.observer
        if emit is not None:
            emit("checkpoint-stable", self.pid, checkpoint.slot)
        truncated = self.storage.install_checkpoint(checkpoint)
        if emit is not None and truncated:
            emit("wal-truncate", self.pid, checkpoint.slot)
        self._prune_upto(checkpoint.slot)

    def _prune_upto(self, slot: int) -> None:
        """Drop execution/result caches the stable checkpoint covers.

        The request-key dedup sets (``_seen_requests`` /
        ``_executed_requests``) survive: they are the safety net against
        re-executing a retransmitted command, and they grow with request
        identity, not with payloads.
        """
        self._results = {
            key: entry for key, entry in self._results.items() if entry[1] > slot
        }
        for stale in [s for s in self._decide_gossip if s <= slot]:
            del self._decide_gossip[stale]

    # ------------------------------------------------------------------
    # Leader demotion (performance monitor; see repro.obs.monitor)
    # ------------------------------------------------------------------

    def _advocate_view(
        self, instance: Any, view: int, slot: Optional[int] = None
    ) -> None:
        """Push one consensus instance toward ``view``.

        Preferably through its pacemaker's wish amplification — replicas
        that reach the demotion quorum at different times still enter
        together on ``2f + 1`` wishes, and stragglers are pulled along by
        ``f + 1`` amplification.  Instances without a pacemaker fall back
        to a direct (idempotent, monotone) view entry.
        """
        emit = self.ctx.observer
        if emit is not None:
            emit("advocate", self.pid, slot, view)
        pacemaker = getattr(instance, "pacemaker", None)
        if pacemaker is not None and hasattr(pacemaker, "advocate"):
            pacemaker.advocate(view)
            return
        enter = getattr(instance, "enter_view", None)
        if enter is not None:
            enter(view)

    def _maybe_vote_demotion(self) -> None:
        """Broadcast a signed demotion vote if the window says the leader
        degraded; one vote per target view, rate-limited by the monitor's
        cooldown."""
        mon = self._monitor
        if mon is None or not mon.should_demote(self.now):
            return
        view = mon.view_floor + 1
        if view in self._demotion_voted:
            return
        target = (view - 2) % self.n  # = leader_of(view - 1), the deposed
        signature = (
            self._signer.sign(demotion_payload(view, target))
            if self._signer is not None
            else None
        )
        vote = DemotionVote(view=view, target=target, signature=signature)
        self._demotion_voted.add(view)
        mon.note_vote_cast(self.now)
        emit = self.ctx.observer
        if emit is not None:
            # include_self=False: our own vote has no network event.
            emit("demotion-vote", self.pid, None, view)
        self.broadcast(vote, include_self=False)
        self._record_demotion_vote(self.pid, vote, verify=False)

    def _handle_demotion_vote(self, sender: int, vote: DemotionVote) -> None:
        self._record_demotion_vote(sender, vote, verify=True)

    def _record_demotion_vote(
        self, sender: int, vote: DemotionVote, verify: bool
    ) -> None:
        mon = self._monitor
        if mon is None:
            return
        if vote.view <= mon.view_floor:
            return  # stale: that demotion already happened
        if vote.target != (vote.view - 2) % self.n:
            return  # malformed: view does not succeed the named leader
        if verify and self._registry is not None:
            signature = vote.signature
            if (
                signature is None
                or signature.signer != sender
                or not self._registry.verify(
                    signature, demotion_payload(vote.view, vote.target)
                )
            ):
                return
        senders = self._demotion_votes.setdefault(vote.view, set())
        senders.add(sender)
        if len(senders) >= self.demotion_quorum:
            self._apply_demotion(vote.view)

    def _apply_demotion(self, view: int) -> None:
        """A ``2f + 1`` demotion quorum formed: raise the view floor and
        steer every undecided instance (and, via ``_create_instance``,
        every future one) past the demoted leader."""
        mon = self._monitor
        if mon is None or view <= mon.view_floor:
            return
        mon.note_demotion(self.now, view)
        emit = self.ctx.observer
        if emit is not None:
            emit("demotion", self.pid, None, view)
        for stale in [v for v in self._demotion_votes if v <= view]:
            del self._demotion_votes[stale]
        for slot in list(self._instances):
            # Advocating may decide (and so drop) a later slot's instance.
            instance = self._instances.get(slot)
            if instance is not None:
                self._advocate_view(instance, view, slot=slot)

    # ------------------------------------------------------------------
    # Catchup (peer state transfer)
    # ------------------------------------------------------------------

    def _handle_catchup_request(self, sender: int, request: CatchupRequest) -> None:
        """Serve our stable checkpoint + decided suffix to a peer.

        A durable replica answers from storage (checkpoint + WAL — the
        authoritative durable record); a legacy replica still answers
        from its in-memory log, so mixed deployments can host laggards.
        """
        low = request.low_slot
        if self.storage is not None:
            checkpoint = self.storage.checkpoint
            if checkpoint is not None and checkpoint.slot < low:
                checkpoint = None
            entries = tuple(
                (slot, value)
                for slot, value in self.storage.wal.decides()
                if slot >= low
            )
        else:
            checkpoint = None
            entries = tuple(
                (slot, value)
                for slot, value in sorted(self._decided.items())
                if slot >= low
            )
        high = max(self._decided, default=-1)
        self.send(
            sender,
            CatchupReply(
                low_slot=low,
                high_slot=high,
                checkpoint=checkpoint,
                entries=entries,
            ),
        )

    def _handle_catchup_reply(self, sender: int, reply: CatchupReply) -> None:
        if not self._catchup.active or sender == self.pid or sender >= self.n:
            return
        self._catchup.record_reply(sender, reply)
        checkpoint = reply.checkpoint
        if (
            checkpoint is not None
            and checkpoint.slot > self._executed_upto
            and self._checkpoint_acceptable(checkpoint)
        ):
            self._install_remote_checkpoint(checkpoint)
        for slot, value in reply.entries:
            if slot <= self._executed_upto or slot in self._decided:
                continue
            # Each reply's (slot, value) claims join the same f+1-matching
            # tally as live SlotDecided gossip: at most f responders lie.
            self._handle_slot_decided(sender, SlotDecided(slot=slot, value=value))
        self._maybe_finish_catchup()

    def _checkpoint_acceptable(self, checkpoint: Checkpoint) -> bool:
        """Whether a peer-shipped checkpoint may be installed.

        The shipped state must re-hash to the claimed digest (a valid
        certificate over a tampered payload proves nothing), and the
        claim needs either a valid ``2f + 1`` certificate or — when the
        deployment is unsigned — ``f + 1`` repliers agreeing on it.
        """
        if state_digest(checkpoint.state) != checkpoint.digest:
            return False
        if self._registry is not None:
            return checkpoint_certificate_valid(
                checkpoint.cert,
                checkpoint.slot,
                checkpoint.digest,
                self._registry,
                self.checkpoint_quorum,
            )
        claims = self._catchup.checkpoint_claims(
            checkpoint.slot, checkpoint.digest
        )
        return len(claims) >= one_correct(self.f)

    def _install_remote_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Jump the replica's execution to a peer's stable checkpoint."""
        self.state_machine.restore(checkpoint.state)
        # The state machine restarted from a snapshot: the applications
        # that produced the snapshot happened on other replicas, so the
        # per-replica application timeline starts over (see the
        # no-duplicate-execution oracle, which judges one timeline).
        self.applied_keys.clear()
        self._executed_upto = max(self._executed_upto, checkpoint.slot)
        self._decided_unexecuted = {
            slot
            for slot in self._decided_unexecuted
            if slot > self._executed_upto
        }
        self._make_stable(checkpoint)
        self._execute_ready()

    def _start_catchup(self) -> None:
        low = self._executed_upto + 1
        self._catchup.begin(low)
        self.broadcast(CatchupRequest(low_slot=low), include_self=False)
        retry = self.durability.catchup_retry if self.durability else 20.0
        self.ctx.set_timer("catchup-retry", retry, self._retry_catchup)

    def _retry_catchup(self) -> None:
        if self._catchup.active:
            self._start_catchup()

    def _maybe_finish_catchup(self) -> None:
        """Declare catchup done once we reached the trusted target.

        The target is the ``(f + 1)``-th highest ``high_slot`` reported:
        at least one of the top ``f + 1`` reports is from a correct
        replica, so it is reachable, and ``f`` inflated Byzantine
        reports cannot raise it beyond every correct replica's progress.
        """
        if not self._catchup.active:
            return
        target = self._catchup.target(self.f)
        if target is None or self._executed_upto < target:
            return
        self._catchup.finish(self.now)
        self.ctx.cancel_timer("catchup-retry")
        # Re-announce what we adopted during transfer (suppressed while
        # active) is unnecessary — peers already have it.  Just resume
        # proposing the client work that queued up meanwhile.
        self._maybe_start_slots()

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def wipe_storage(self) -> None:
        """The disk-loss fault: called while crashed, before recovery."""
        if self.storage is not None:
            self.storage.wipe()

    def on_recover(self) -> None:
        """Rebuild from storage instead of resurrecting volatile state.

        Legacy replicas (no storage) keep the old model — in-memory
        state survives, missed messages are simply lost.  Durable
        replicas discard *everything* volatile, restore the stable
        checkpoint, replay the WAL suffix, and then run the catchup
        protocol to fetch whatever the cluster decided while they were
        down (all of it, when the disk was lost with the crash).
        """
        if self.storage is None:
            return
        self._rebuild_from_storage()
        self._start_catchup()

    def _rebuild_from_storage(self) -> None:
        # -- drop every piece of volatile state
        for instance in self._instances.values():
            self.ctx.release(instance.ctx)
        self._instances.clear()
        self._retired_view = 1
        self._pending.clear()
        self._seen_requests.clear()
        self._decided.clear()
        self._decided_unexecuted.clear()
        self._decide_gossip.clear()
        self._results.clear()
        self._executed_requests.clear()
        self._assigned.clear()
        self._batch_deadline = None
        self.applied_keys.clear()
        self._arrival_times.clear()
        self._demotion_votes.clear()
        self._checkpoints.reset()
        # -- restore the durable prefix
        checkpoint = self.storage.checkpoint
        if checkpoint is not None:
            self.state_machine.restore(checkpoint.state)
            self._executed_upto = checkpoint.slot
            self._checkpoints.install_stable(checkpoint)
        else:
            self.state_machine.restore(type(self.state_machine)().snapshot())
            self._executed_upto = -1
        # -- replay the WAL suffix: adopt, then execute in slot order.
        #    Replies are re-sent (clients deduplicate); re-announcing via
        #    gossip is skipped — peers decided these slots long ago.
        for slot, value in self.storage.wal.decides():
            if slot > self._executed_upto and slot not in self._decided:
                self._decided[slot] = value
                self._decided_unexecuted.add(slot)
        self._execute_ready()
