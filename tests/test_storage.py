"""The durability subsystem: WAL, checkpoints, catchup, recovery.

Unit coverage for ``repro.storage`` plus integration coverage for the
replica-level wiring: write-ahead logging of decisions, quorum-certified
checkpoint stabilization with cache/WAL compaction, crash recovery from
retained disks, full state transfer from lost disks, and rejection of
forged catchup replies.
"""

from repro.core.certificates import (
    CheckpointCertificate,
    checkpoint_certificate_valid,
)
from repro.core.config import DurabilityConfig, ProtocolConfig, ReplicationConfig
from repro.core.payloads import checkpoint_payload
from repro.crypto.keys import KeyRegistry
from repro.sim.network import SynchronousDelay
from repro.sim.process import Process, ProcessContext
from repro.sim.runner import Cluster
from repro.smr import (
    AppendLog,
    Batch,
    Counter,
    KVStore,
    SMRClient,
    SMRReplica,
    fbft_instance_factory,
)
from repro.storage import (
    CatchupManager,
    CatchupReply,
    CatchupRequest,
    Checkpoint,
    MemoryWAL,
    ReplicaStorage,
    WALRecord,
    state_digest,
)


# ---------------------------------------------------------------------------
# The write-ahead log
# ---------------------------------------------------------------------------


class TestWAL:
    def test_memory_append_and_replay_order(self):
        wal = MemoryWAL()
        wal.append_decide(0, ("set", "a", 1))
        wal.append_view_change(1, 2)
        wal.append_decide(1, ("set", "b", 2))
        assert [r.kind for r in wal.records()] == [
            "decide", "view-change", "decide",
        ]
        assert wal.decides() == ((0, ("set", "a", 1)), (1, ("set", "b", 2)))

    def test_truncate_upto_drops_covered_slots(self):
        wal = MemoryWAL()
        for slot in range(6):
            wal.append_decide(slot, ("set", f"k{slot}", slot))
        dropped = wal.truncate_upto(3)
        assert dropped == 4
        assert [slot for slot, _ in wal.decides()] == [4, 5]
        assert wal.truncated_count == 4

    def test_truncate_compacts_view_changes_with_their_slot(self):
        wal = MemoryWAL()
        wal.append_view_change(0, 2)
        wal.append_decide(0, "v0")
        wal.append_view_change(1, 3)
        assert wal.truncate_upto(0) == 2
        assert wal.records() == (WALRecord(kind="view-change", slot=1, view=3),)
        assert wal.decides() == ()

    def test_wipe_erases_everything(self):
        wal = MemoryWAL()
        wal.append_decide(0, "v")
        wal.wipe()
        assert len(wal) == 0


# ---------------------------------------------------------------------------
# Checkpoints and their certificates
# ---------------------------------------------------------------------------


class TestCheckpoints:
    def test_state_digest_is_order_insensitive(self):
        assert state_digest({"a": 1, "b": 2}) == state_digest({"b": 2, "a": 1})
        assert state_digest({"a": 1}) != state_digest({"a": 2})

    def test_certificate_validation(self):
        registry = KeyRegistry.for_processes(range(4))
        digest = state_digest({"k": 1})
        payload = checkpoint_payload(5, digest)
        good = CheckpointCertificate(
            slot=5, digest=digest,
            signatures=tuple(
                registry.signer(pid).sign(payload) for pid in range(3)
            ),
        )
        assert checkpoint_certificate_valid(good, 5, digest, registry, 3)
        # Wrong (slot, digest) binding.
        assert not checkpoint_certificate_valid(good, 6, digest, registry, 3)
        assert not checkpoint_certificate_valid(good, 5, "00" * 32, registry, 3)
        # Too few distinct signers.
        thin = CheckpointCertificate(
            slot=5, digest=digest,
            signatures=(registry.signer(0).sign(payload),) * 3,
        )
        assert not checkpoint_certificate_valid(thin, 5, digest, registry, 3)
        assert not checkpoint_certificate_valid(None, 5, digest, registry, 3)

    def test_replica_storage_keeps_checkpoint_and_compacts(self):
        storage = ReplicaStorage()
        for slot in range(6):
            storage.wal.append_decide(slot, f"v{slot}")
        state = {"k": 5}
        checkpoint = Checkpoint(slot=3, state=state, digest=state_digest(state))
        dropped = storage.install_checkpoint(checkpoint)
        assert dropped == 4
        assert storage.stable_slot == 3
        assert [slot for slot, _ in storage.wal.decides()] == [4, 5]
        # Older checkpoints are refused.
        stale = Checkpoint(slot=1, state={}, digest=state_digest({}))
        assert storage.install_checkpoint(stale) == 0
        assert storage.stable_slot == 3

    def test_replica_storage_wipe_forgets_checkpoint_and_log(self):
        storage = ReplicaStorage()
        storage.wal.append_decide(0, "v0")
        storage.install_checkpoint(Checkpoint(slot=0, state={}, digest=state_digest({})))
        storage.wal.append_decide(1, "v1")
        storage.wipe()
        assert storage.checkpoint is None and storage.stable_slot == -1
        assert len(storage.wal) == 0
        # A wiped disk accepts a checkpoint at any slot again.
        assert storage.install_checkpoint(
            Checkpoint(slot=0, state={}, digest=state_digest({}))) == 0
        assert storage.stable_slot == 0


class TestStateMachineSnapshots:
    def test_kvstore_round_trip(self):
        store = KVStore()
        store.apply(("set", "k", 1))
        clone = KVStore()
        clone.restore(store.snapshot())
        assert clone.apply(("get", "k")) == 1

    def test_counter_round_trip(self):
        counter = Counter()
        counter.apply(("inc", 5))
        clone = Counter()
        clone.restore(counter.snapshot())
        assert clone.apply(("read",)) == 5

    def test_append_log_round_trip(self):
        log = AppendLog()
        log.apply(("set", "a", 1))
        clone = AppendLog()
        clone.restore(log.snapshot())
        assert clone.entries == [("set", "a", 1)]


# ---------------------------------------------------------------------------
# Catchup bookkeeping
# ---------------------------------------------------------------------------


class TestCatchupManager:
    def _reply(self, high, checkpoint=None):
        return CatchupReply(
            low_slot=0, high_slot=high, checkpoint=checkpoint, entries=()
        )

    def test_target_needs_f_plus_one_replies(self):
        manager = CatchupManager()
        manager.begin(0)
        manager.record_reply(1, self._reply(10))
        assert manager.target(1) is None
        manager.record_reply(2, self._reply(8))
        assert manager.target(1) == 8

    def test_inflated_byzantine_high_cannot_raise_the_target(self):
        manager = CatchupManager()
        manager.begin(0)
        manager.record_reply(1, self._reply(10**9))  # liar
        manager.record_reply(2, self._reply(7))
        manager.record_reply(3, self._reply(7))
        assert manager.target(1) == 7

    def test_retry_overwrites_stale_replies_per_sender(self):
        manager = CatchupManager()
        manager.begin(0)
        manager.record_reply(1, self._reply(3))
        manager.begin(2)  # retry round
        manager.record_reply(1, self._reply(9))
        manager.record_reply(2, self._reply(9))
        assert manager.target(1) == 9
        assert manager.rounds == 2


# ---------------------------------------------------------------------------
# Durable replica integration
# ---------------------------------------------------------------------------


def build_durable_cluster(
    n=4, f=1, interval=3, batch_size=2, window=2, clients=1, signed=True
):
    config = ProtocolConfig(n=n, f=f, t=1)
    registry = KeyRegistry.for_processes(range(n))
    factory = fbft_instance_factory(config, registry)
    durability = DurabilityConfig(checkpoint_interval=interval)
    replication = ReplicationConfig(batch_size=batch_size, pipeline_depth=2)
    replicas = [
        SMRReplica(
            pid, n, f, KVStore(), factory,
            replication=replication, durability=durability,
            registry=registry if signed else None,
        )
        for pid in range(n)
    ]
    client_procs = [
        SMRClient(pid=n + i, replica_pids=range(n), f=f, window=window)
        for i in range(clients)
    ]
    cluster = Cluster(
        replicas + client_procs, delay_model=SynchronousDelay(1.0)
    )
    cluster.start()
    return cluster, replicas, client_procs


def drain(cluster, client, count, timeout=10_000):
    cluster.sim.run_until(
        lambda: client.completed_count >= count, timeout=timeout
    )


class TestDurableReplica:
    def test_decisions_hit_the_wal_before_execution(self):
        cluster, replicas, (client,) = build_durable_cluster(interval=100)
        client.submit(("set", "k", 1))
        drain(cluster, client, 1)
        for replica in replicas:
            decides = replica.storage.wal.decides()
            assert len(decides) == 1
            assert decides[0][0] == 0

    def test_checkpoints_stabilize_with_quorum_certificates(self):
        cluster, replicas, (client,) = build_durable_cluster(interval=3)
        for i in range(12):
            client.submit(("set", f"k{i}", i))
        drain(cluster, client, 12)
        # Let the last boundary's checkpoint votes finish their round trip.
        cluster.sim.run(until=cluster.sim.now + 5.0)
        for replica in replicas:
            assert replica.stable_checkpoint_slot == 5
            cert = replica.storage.checkpoint.cert
            assert cert is not None
            assert len(cert.signers) >= replica.checkpoint_quorum
            # WAL retains less than one interval of decides.
            assert len(replica.storage.wal.decides()) < 3

    def test_long_run_keeps_caches_and_wal_bounded(self):
        """Satellite regression: result caches, gossip tallies and the
        WAL are compacted at stable checkpoints instead of growing with
        the workload."""
        cluster, replicas, (client,) = build_durable_cluster(
            interval=3, batch_size=1, window=4
        )
        total = 60
        client.load_workload([("set", f"k{i % 5}", i) for i in range(total)])
        # load_workload after start: kick the closed loop manually.
        client.on_start()
        drain(cluster, client, total, timeout=50_000)
        for replica in replicas:
            assert replica.executed_upto >= total - 1
            stable = replica.stable_checkpoint_slot
            assert stable >= total - 6
            # Everything at or below the stable checkpoint is compacted.
            assert len(replica._results) <= total - stable + 4
            assert len(replica._results) < total // 2
            assert all(s > stable for s in replica._decide_gossip)
            assert len(replica.storage.wal) < 8

    def test_retained_disk_recovery_matches_peers(self):
        cluster, replicas, (client,) = build_durable_cluster(interval=3)
        for i in range(6):
            client.submit(("set", f"warm{i}", i))
        drain(cluster, client, 6)
        victim = replicas[1]
        victim.crash()
        for i in range(8):
            client.submit(("set", f"lag{i}", i))
        drain(cluster, client, 14)
        assert victim.executed_upto < max(r.executed_upto for r in replicas)
        victim.recover()
        others = [r for r in replicas if r is not victim]
        cluster.sim.run_until(
            lambda: not victim.catchup_active
            and victim.executed_upto >= max(r.executed_upto for r in others),
            timeout=10_000,
        )
        reference = max(others, key=lambda r: r.executed_upto)
        assert state_digest(victim.state_machine.snapshot()) == state_digest(
            reference.state_machine.snapshot()
        )

    def test_lost_disk_recovery_transfers_peer_checkpoint(self):
        cluster, replicas, (client,) = build_durable_cluster(interval=3)
        for i in range(4):
            client.submit(("set", f"warm{i}", i))
        drain(cluster, client, 4)
        victim = replicas[2]
        victim.crash()
        victim.wipe_storage()
        assert victim.storage.checkpoint is None and len(victim.storage.wal) == 0
        for i in range(10):
            client.submit(("set", f"lag{i}", i))
        drain(cluster, client, 14)
        victim.recover()
        others = [r for r in replicas if r is not victim]
        cluster.sim.run_until(
            lambda: not victim.catchup_active
            and victim.executed_upto >= max(r.executed_upto for r in others),
            timeout=10_000,
        )
        # The transferred checkpoint was installed into local storage.
        assert victim.stable_checkpoint_slot >= 2
        reference = max(others, key=lambda r: r.executed_upto)
        assert state_digest(victim.state_machine.snapshot()) == state_digest(
            reference.state_machine.snapshot()
        )

    def test_forged_catchup_reply_is_rejected(self):
        """A reply with an uncertified checkpoint and fabricated entries
        must not move the recovering replica at all."""
        cluster, replicas, (client,) = build_durable_cluster(interval=3)
        for i in range(4):
            client.submit(("set", f"k{i}", i))
        drain(cluster, client, 4)
        victim = replicas[3]
        victim.crash()
        victim.wipe_storage()
        victim.recover()  # catchup now active
        assert victim.catchup_active
        state = {"k0": "evil"}
        forged = CatchupReply(
            low_slot=0,
            high_slot=500,
            checkpoint=Checkpoint(
                slot=40, state=state, digest=state_digest(state), cert=None
            ),
            entries=tuple(
                (slot, Batch(entries=((99, slot, ("set", "k0", "evil")),)))
                for slot in range(3)
            ),
        )
        before = victim.executed_upto
        victim._handle_catchup_reply(0, forged)
        assert victim.executed_upto == before
        assert victim.stable_checkpoint_slot == -1
        assert victim.state_machine.snapshot() != state
        # Honest replies still complete the recovery afterwards.
        others = [r for r in replicas if r is not victim]
        cluster.sim.run_until(
            lambda: not victim.catchup_active
            and victim.executed_upto >= max(r.executed_upto for r in others),
            timeout=10_000,
        )
        reference = max(others, key=lambda r: r.executed_upto)
        assert state_digest(victim.state_machine.snapshot()) == state_digest(
            reference.state_machine.snapshot()
        )

    def test_tampered_certified_checkpoint_fails_the_rehash(self):
        """A valid certificate over garbage state proves nothing: the
        shipped state must re-hash to the certified digest."""
        cluster, replicas, (client,) = build_durable_cluster(interval=2)
        for i in range(8):
            client.submit(("set", f"k{i}", i))
        drain(cluster, client, 8)
        donor = replicas[0]
        real = donor.storage.checkpoint
        assert real is not None and real.cert is not None
        tampered = Checkpoint(
            slot=real.slot,
            state={"k0": "evil"},
            digest=real.digest,  # certified digest, wrong state
            cert=real.cert,
        )
        victim = replicas[1]
        assert not victim._checkpoint_acceptable(tampered)
        assert victim._checkpoint_acceptable(real)

    def test_lost_catchup_request_is_retried(self):
        """The recovering replica's first CatchupRequest never arrives:
        after ``catchup_retry`` it broadcasts again and finishes."""
        cluster, replicas, (client,) = build_durable_cluster(interval=100)
        for i in range(3):
            client.submit(("set", f"warm{i}", i))
        drain(cluster, client, 3)
        victim = replicas[1]
        victim.crash()
        for i in range(5):
            client.submit(("set", f"lag{i}", i))
        drain(cluster, client, 8)
        rounds = []

        def hold_first_round(envelope):
            if isinstance(envelope.payload, CatchupRequest):
                if envelope.send_time not in rounds:
                    rounds.append(envelope.send_time)
                if envelope.send_time == rounds[0]:
                    return envelope.send_time + 10**6  # past the run: lost
            return None

        cluster.network.interceptor = hold_first_round
        recovered_at = cluster.sim.now
        victim.recover()
        others = [r for r in replicas if r is not victim]
        cluster.sim.run_until(
            lambda: not victim.catchup_active
            and victim.executed_upto >= max(r.executed_upto for r in others),
            timeout=10_000,
        )
        retry = victim.durability.catchup_retry
        assert rounds == [recovered_at, recovered_at + retry]
        assert not victim.catchup_active
        assert all(victim.log == peer.log for peer in others)

    @staticmethod
    def _unsigned_recovery():
        """An unsigned cluster with a stable checkpoint, and a replica that
        lost its disk and waits for catchup replies; ``reply(c)`` ships ``c``."""
        cluster, replicas, (client,) = build_durable_cluster(
            interval=2, signed=False
        )
        for i in range(8):
            client.submit(("set", f"k{i}", i))
        drain(cluster, client, 8)
        cluster.sim.run(until=cluster.sim.now + 5.0)
        real = replicas[0].storage.checkpoint
        assert real is not None and real.cert is None
        victim = replicas[3]
        victim.crash()
        victim.wipe_storage()
        victim.recover()
        assert victim.catchup_active

        def reply(checkpoint):
            return CatchupReply(
                low_slot=0, high_slot=real.slot, checkpoint=checkpoint, entries=()
            )

        return victim, real, reply

    def test_unsigned_checkpoint_needs_f_plus_1_matching_claims(self):
        """Without a key registry a shipped checkpoint has no certificate:
        it is installed only once ``f + 1`` repliers claim it."""
        victim, real, reply = self._unsigned_recovery()
        victim._handle_catchup_reply(0, reply(real))  # f claims
        assert victim.stable_checkpoint_slot == -1
        victim._handle_catchup_reply(2, reply(real))  # f + 1 claims
        assert victim.stable_checkpoint_slot == real.slot
        assert state_digest(victim.state_machine.snapshot()) == real.digest
        assert not victim.catchup_active

    def test_unsigned_checkpoint_claims_count_distinct_repliers(self):
        victim, real, reply = self._unsigned_recovery()
        victim._handle_catchup_reply(0, reply(real))
        victim._handle_catchup_reply(0, reply(real))  # the same replier again
        assert victim.stable_checkpoint_slot == -1
        assert victim.catchup_active

    def test_unsigned_checkpoint_must_rehash_to_its_digest(self):
        """``f + 1`` repliers agree on the digest, but the shipped state
        is not the state it names: nothing is installed."""
        victim, real, reply = self._unsigned_recovery()
        tampered = Checkpoint(slot=real.slot, state={"k0": "evil"}, digest=real.digest)
        victim._handle_catchup_reply(0, reply(real))
        victim._handle_catchup_reply(1, reply(tampered))  # f + 1, one tampered
        assert victim.stable_checkpoint_slot == -1
        victim._handle_catchup_reply(2, reply(tampered))
        assert victim.stable_checkpoint_slot == -1
        assert victim.state_machine.snapshot() != {"k0": "evil"}

    def test_legacy_replica_recovery_keeps_old_semantics(self):
        """Without storage, on_recover is a no-op: in-memory state
        survives and nothing is rebuilt (the pre-durability model)."""
        config = ProtocolConfig(n=4, f=1, t=1)
        registry = KeyRegistry.for_processes(range(4))
        factory = fbft_instance_factory(config, registry)
        replica = SMRReplica(0, 4, 1, KVStore(), factory)
        assert replica.storage is None
        # on_recover without a context would be the bug; with one it is
        # a no-op for legacy replicas.
        import repro.sim.events as events
        import repro.sim.network as network

        sim = events.Simulator()
        net = network.Network(sim, delay_model=SynchronousDelay(1.0))
        for pid in range(4):  # the replica group it broadcasts to
            net.register(pid, lambda s, p: None)
        replica.attach(ProcessContext(0, sim, net))
        replica.crash()
        replica.recover()
        assert not replica.crashed


class TestDefaultOnRecoverHook:
    def test_base_process_hook_is_a_no_op(self):
        process = Process(7)
        process.on_recover()  # must not raise, even unattached
