"""Unit tests for SMR internals: slot contexts, gossip, retransmission."""

import pytest

from repro.core.config import ProtocolConfig
from repro.crypto.keys import KeyRegistry
from repro.sim.network import SynchronousDelay
from repro.sim.runner import Cluster
from repro.smr import (
    Batch,
    KVStore,
    NOOP,
    Reply,
    Request,
    SMRClient,
    SMRReplica,
    SlotDecided,
    SlotMessage,
    commands_of,
    fbft_instance_factory,
)


def make_cluster(n=4, f=1):
    config = ProtocolConfig(n=n, f=f, t=1)
    registry = KeyRegistry.for_processes(range(n))
    factory = fbft_instance_factory(config, registry)
    replicas = [SMRReplica(pid, n, f, KVStore(), factory) for pid in range(n)]
    client = SMRClient(pid=n, replica_pids=range(n), f=f)
    cluster = Cluster(replicas + [client], delay_model=SynchronousDelay(1.0))
    return cluster, replicas, client


class TestSlotMultiplexing:
    def test_slot_messages_are_scoped(self):
        cluster, replicas, client = make_cluster()
        client.load_workload([("set", "a", 1), ("set", "b", 2)])
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=500)
        slots = {
            env.payload.slot
            for env in cluster.trace.sends
            if isinstance(env.payload, SlotMessage)
        }
        assert slots == {0, 1}

    def test_instances_created_lazily(self):
        cluster, replicas, client = make_cluster()
        cluster.start()
        cluster.sim.run(until=5.0)
        assert not replicas[0]._instances  # no requests yet

    def test_slot_timers_do_not_collide(self):
        """Two concurrent slots arm pacemaker timers under distinct names."""
        cluster, replicas, client = make_cluster()
        client.load_workload([("set", "a", 1)])
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=500)
        replica = replicas[1]
        instance = replica._instances[0]
        # The slot's context prefixes timer names.
        assert instance.ctx is not replica.ctx
        assert instance.ctx.pid == replica.ctx.pid

    def test_max_slots_guard(self):
        config = ProtocolConfig(n=4, f=1, t=1)
        registry = KeyRegistry.for_processes(range(4))
        factory = fbft_instance_factory(config, registry)
        replica = SMRReplica(0, 4, 1, KVStore(), factory, max_slots=1)
        cluster = Cluster(
            [replica]
            + [
                SMRReplica(pid, 4, 1, KVStore(), factory, max_slots=1)
                for pid in range(1, 4)
            ],
            delay_model=SynchronousDelay(1.0),
        )
        cluster.start()
        replica._decided[0] = NOOP
        replica._pending.append(
            Request(client=9, request_id=0, command=("set", "x", 1))
        )
        with pytest.raises(RuntimeError, match="max_slots"):
            replica._maybe_start_slots()


class TestDecisionGossip:
    def test_f_plus_1_matching_gossip_adopted(self):
        cluster, replicas, client = make_cluster()
        cluster.start()
        replica = replicas[3]
        replica._handle_slot_decided(0, SlotDecided(slot=0, value=("set", "x", 1)))
        assert replica.decided_value(0) is None  # one voice is not enough
        replica._handle_slot_decided(1, SlotDecided(slot=0, value=("set", "x", 1)))
        assert replica.decided_value(0) == ("set", "x", 1)  # f + 1 = 2

    def test_conflicting_gossip_does_not_mix(self):
        cluster, replicas, client = make_cluster()
        cluster.start()
        replica = replicas[3]
        replica._handle_slot_decided(0, SlotDecided(slot=0, value=("a",)))
        replica._handle_slot_decided(1, SlotDecided(slot=0, value=("b",)))
        assert replica.decided_value(0) is None

    def test_duplicate_gossip_sender_counts_once(self):
        cluster, replicas, client = make_cluster()
        cluster.start()
        replica = replicas[3]
        for _ in range(5):
            replica._handle_slot_decided(0, SlotDecided(slot=0, value=("a",)))
        assert replica.decided_value(0) is None

    def test_gossip_after_local_decision_is_noop(self):
        cluster, replicas, client = make_cluster()
        cluster.start()
        replica = replicas[3]
        replica._adopt_decision(0, ("set", "a", 1))
        replica._handle_slot_decided(0, SlotDecided(slot=0, value=("set", "b", 2)))
        replica._handle_slot_decided(1, SlotDecided(slot=0, value=("set", "b", 2)))
        assert replica.decided_value(0) == ("set", "a", 1)


class TestGossipAdoptionDedupe:
    """Regression: a request arriving *after* its command was executed via
    gossip adoption must not be re-proposed and re-executed (the seed
    engine applied it twice and never replied to the late request)."""

    def _reply_count(self, cluster, client_pid):
        return sum(
            1
            for env in cluster.trace.sends
            if isinstance(env.payload, Reply) and env.payload.client == client_pid
        )

    def test_late_request_after_batch_gossip_adoption(self):
        cluster, replicas, client = make_cluster()
        cluster.start()
        replica = replicas[3]
        batch = Batch(entries=((4, 7, ("set", "x", 1)),))
        replica._handle_slot_decided(0, SlotDecided(slot=0, value=batch))
        replica._handle_slot_decided(1, SlotDecided(slot=0, value=batch))
        assert replica.state_machine.applied_count == 1
        replies_before = self._reply_count(cluster, 4)
        # The request arrives late (e.g. the replica was partitioned).
        replica._handle_request(4, Request(client=4, request_id=7, command=("set", "x", 1)))
        assert not replica._pending  # not queued for re-proposal
        assert replica.state_machine.applied_count == 1  # not applied twice
        cluster.sim.run(until=cluster.sim.now + 5)
        # The late request is answered from the result cache.
        assert self._reply_count(cluster, 4) == replies_before + 1

    def test_late_request_after_bare_command_gossip_adoption(self):
        """A bare decided value names no request and applies nothing, so
        a request for the same command arriving after its gossip adoption
        is queued, proposed and executed exactly once."""
        cluster, replicas, client = make_cluster()
        cluster.start()
        late = Request(client=4, request_id=9, command=("set", "x", 1))
        for replica in replicas:
            replica._handle_slot_decided(0, SlotDecided(slot=0, value=late.command))
            replica._handle_slot_decided(1, SlotDecided(slot=0, value=late.command))
            assert replica.decided_value(0) == late.command
            assert replica.state_machine.applied_count == 0
            replica._handle_request(4, late)
            assert len(replica._pending) == 1  # queued for proposal
        cluster.sim.run(until=cluster.sim.now + 50)
        for replica in replicas:
            assert replica.applied_keys == [(4, 9)]
            assert replica.state_machine.applied_count == 1
        assert self._reply_count(cluster, 4) == len(replicas)

    def test_duplicate_batch_decision_executes_once(self):
        """A command re-proposed into a second slot (view-change race)
        executes only once; the second decision is a no-op for it."""
        cluster, replicas, client = make_cluster()
        cluster.start()
        replica = replicas[2]
        entry = (4, 3, ("set", "y", 2))
        replica._adopt_decision(0, Batch(entries=(entry,)))
        replica._adopt_decision(1, Batch(entries=(entry, (4, 5, ("set", "z", 3)))))
        assert replica.state_machine.applied_count == 2  # y once, z once
        assert replica.applied_keys == [(4, 3), (4, 5)]

    def test_requests_in_decided_unexecuted_slots_not_reproposed(self):
        """A batch adopted out of order (slot 1 before slot 0) is decided
        but unexecuted; its requests must not be packed into a fresh
        proposal — that would burn a consensus instance on duplicates."""
        cluster, replicas, client = make_cluster()
        cluster.start()
        replica = replicas[3]
        replica._handle_request(
            4, Request(client=4, request_id=0, command=("set", "x", 1))
        )
        batch = Batch(entries=((4, 0, ("set", "x", 1)),))
        replica._handle_slot_decided(0, SlotDecided(slot=1, value=batch))
        replica._handle_slot_decided(1, SlotDecided(slot=1, value=batch))
        assert replica.decided_value(1) == batch
        assert replica.executed_upto == -1  # slot 0 still missing
        cluster.sim.run(until=1.0)  # let the proposal flush fire
        # The gap slot 0 gets a noop filler instance, but the parked
        # request is not packed into any new proposal.
        assert not replica._unassigned_pending()
        assert replica._instances[0].input_value == NOOP
        assert all(
            (4, 0) not in getattr(inst.input_value, "keys", ())
            for inst in replica._instances.values()
        )

    def test_out_of_order_adoption_fills_gap_slots(self):
        """Adopting slot 5 with slots 0..4 unstarted must open instances
        for the gaps — otherwise parked requests (excluded from new
        proposals) would deadlock execution below the decided slot."""
        cluster, replicas, client = make_cluster()
        cluster.start()
        replica = replicas[3]
        replica._handle_request(
            4, Request(client=4, request_id=0, command=("set", "x", 1))
        )
        batch = Batch(entries=((4, 0, ("set", "x", 1)),))
        replica._handle_slot_decided(0, SlotDecided(slot=5, value=batch))
        replica._handle_slot_decided(1, SlotDecided(slot=5, value=batch))
        assert all(s in replica._instances for s in range(5))

    def test_cluster_survives_out_of_order_decision(self):
        """Full-cluster liveness: all replicas adopt a far-ahead slot
        before the request's own proposal lands; the gap slots fill with
        noops, execution reaches the parked batch, the client completes,
        and the command applies exactly once."""
        cluster, replicas, client = make_cluster()
        client.load_workload([("set", "x", 1)])
        batch = Batch(entries=((4, 0, ("set", "x", 1)),))

        def adopt_everywhere():
            for replica in replicas:
                replica._handle_slot_decided(0, SlotDecided(slot=5, value=batch))
                replica._handle_slot_decided(1, SlotDecided(slot=5, value=batch))

        cluster.start()
        cluster.sim.schedule(0.5, adopt_everywhere)  # before requests arrive
        cluster.sim.run_until(lambda: client.all_completed, timeout=2000)
        assert client.all_completed
        for replica in replicas:
            assert replica.applied_keys == [(4, 0)]

    def test_bare_decided_value_applies_nothing(self):
        """Only a Batch carries commands.  A bare value, which only a
        Byzantine proposer can get decided, applies nothing on any
        replica; the late request is then proposed and executed once."""
        cluster, replicas, client = make_cluster()
        client.load_workload([("set", "x", 1)])
        bare = ("set", "x", 1)

        def adopt_everywhere():
            for replica in replicas:
                replica._handle_slot_decided(0, SlotDecided(slot=0, value=bare))
                replica._handle_slot_decided(1, SlotDecided(slot=0, value=bare))

        cluster.start()
        cluster.sim.schedule(0.5, adopt_everywhere)  # before requests arrive
        cluster.sim.run_until(lambda: client.all_completed, timeout=2000)
        assert client.all_completed
        assert commands_of(bare) == ()
        for replica in replicas:
            assert replica.decided_value(0) == bare
            assert replica.applied_keys == [(4, 0)]
            assert replica.state_machine.applied_count == 1
            assert replica.state_machine.snapshot() == {"x": 1}

    def test_commands_of_unpacks_values(self):
        assert commands_of(NOOP) == ()
        batch = Batch(entries=((1, 0, ("a",)), (2, 1, ("b",))))
        assert commands_of(batch) == (("a",), ("b",))
        assert batch.keys == ((1, 0), (2, 1))
        assert len(batch) == 2


class TestExecution:
    def test_execution_strictly_in_slot_order(self):
        cluster, replicas, client = make_cluster()
        cluster.start()
        replica = replicas[2]
        # Decide slot 1 before slot 0: nothing executes until 0 arrives.
        replica._adopt_decision(1, NOOP)
        assert replica.executed_upto == -1
        replica._adopt_decision(0, NOOP)
        assert replica.executed_upto == 1

    def test_noop_slots_execute_silently(self):
        cluster, replicas, client = make_cluster()
        cluster.start()
        replica = replicas[2]
        replica._adopt_decision(0, NOOP)
        assert replica.executed_upto == 0
        assert replica.state_machine.applied_count == 0

    def test_retransmitted_request_gets_cached_reply(self):
        cluster, replicas, client = make_cluster()
        client.load_workload([("set", "a", 1)])
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=500)
        replies_before = sum(
            1 for env in cluster.trace.sends if isinstance(env.payload, Reply)
        )
        # Client retransmits the same request after completion.
        request = Request(client=4, request_id=0, command=("set", "a", 1))
        for replica in replicas:
            replica._handle_request(4, request)
        cluster.sim.run(until=cluster.sim.now + 5)
        replies_after = sum(
            1 for env in cluster.trace.sends if isinstance(env.payload, Reply)
        )
        assert replies_after > replies_before  # re-replied from cache

    def test_log_property_sorted(self):
        cluster, replicas, client = make_cluster()
        cluster.start()
        replica = replicas[2]
        replica._adopt_decision(1, ("set", "b", 2))
        replica._adopt_decision(0, ("set", "a", 1))
        assert replica.log == (
            (0, ("set", "a", 1)),
            (1, ("set", "b", 2)),
        )
