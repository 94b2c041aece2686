"""Tests for the replicated state machine layer."""

import pytest

from repro.core.config import ProtocolConfig, ReplicationConfig
from repro.crypto.keys import KeyRegistry
from repro.sim.network import SynchronousDelay
from repro.sim.runner import Cluster
from repro.smr import (
    AppendLog,
    Counter,
    KVStore,
    NOOP,
    SMRClient,
    SMRReplica,
    fbft_instance_factory,
)


def make_smr(n=4, f=1, t=1, state_machine_cls=KVStore, clients=1,
             base_timeout=12.0, replication=None, window=1):
    config = ProtocolConfig(n=n, f=f, t=t)
    registry = KeyRegistry.for_processes(range(n))
    factory = fbft_instance_factory(config, registry, base_timeout=base_timeout)
    replicas = [
        SMRReplica(pid, n, f, state_machine_cls(), factory,
                   replication=replication)
        for pid in range(n)
    ]
    client_procs = [
        SMRClient(pid=n + i, replica_pids=range(n), f=f, window=window)
        for i in range(clients)
    ]
    cluster = Cluster(
        replicas + client_procs, delay_model=SynchronousDelay(1.0)
    )
    return cluster, replicas, client_procs


def assert_no_duplicate_applications(replicas):
    for replica in replicas:
        assert len(replica.applied_keys) == len(set(replica.applied_keys)), (
            f"replica {replica.pid} applied a request twice: "
            f"{replica.applied_keys}"
        )


class TestStateMachines:
    def test_kvstore_operations(self):
        store = KVStore()
        assert store.apply(("set", "k", 1)) == "OK"
        assert store.apply(("get", "k")) == 1
        assert store.apply(("del", "k")) == "OK"
        assert store.apply(("get", "k")) is None
        assert store.apply(NOOP) is None
        with pytest.raises(ValueError):
            store.apply(("bogus",))

    def test_counter(self):
        counter = Counter()
        assert counter.apply(("inc",)) == 1
        assert counter.apply(("inc", 5)) == 6
        assert counter.apply(("dec", 2)) == 4
        assert counter.apply(("read",)) == 4

    def test_append_log_skips_noops(self):
        log = AppendLog()
        log.apply(("a",))
        log.apply(NOOP)
        log.apply(("b",))
        assert log.entries == [("a",), ("b",)]


class TestHappyPath:
    def test_single_command(self):
        cluster, replicas, (client,) = make_smr()
        client.load_workload([("set", "x", 42)])
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=200)
        assert client.outcomes[0].result == "OK"
        assert all(r.decided_value(0).commands == (("set", "x", 42),) for r in replicas)

    def test_command_sequence_applied_in_order(self):
        cluster, replicas, (client,) = make_smr(state_machine_cls=AppendLog)
        workload = [("cmd", i) for i in range(6)]
        client.load_workload(workload)
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=500)
        for replica in replicas:
            assert replica.state_machine.entries == workload

    def test_logs_identical_across_replicas(self):
        cluster, replicas, (client,) = make_smr()
        client.load_workload([("set", k, k) for k in "abcde"])
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=500)
        assert len({r.log for r in replicas}) == 1

    def test_command_latency_is_four_delays(self):
        """Request (1) + propose (1) + ack (1) + reply (1) = 4 delays."""
        cluster, replicas, (client,) = make_smr()
        client.load_workload([("set", "x", 1)])
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=200)
        assert client.outcomes[0].latency == 4.0

    def test_kv_reads_see_writes(self):
        cluster, replicas, (client,) = make_smr()
        client.load_workload([("set", "x", 7), ("get", "x")])
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=500)
        assert client.outcomes[1].result == 7


class TestFaultTolerance:
    def test_leader_crash_failover(self):
        cluster, replicas, (client,) = make_smr()
        client.load_workload([("set", "x", 1), ("get", "x")])
        replicas[0].crash()
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=2000)
        assert client.outcomes[1].result == 1
        live = replicas[1:]
        assert len({r.log for r in live}) == 1

    def test_non_leader_crash_no_slowdown(self):
        cluster, replicas, (client,) = make_smr()
        client.load_workload([("set", "x", 1)])
        replicas[3].crash()
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=500)
        assert client.outcomes[0].latency == 4.0

    def test_mid_run_crash(self):
        cluster, replicas, (client,) = make_smr()
        client.load_workload([("set", k, 1) for k in "abcdef"])
        cluster.start()
        cluster.sim.schedule(6.0, replicas[0].crash)
        cluster.sim.run_until(lambda: client.all_completed, timeout=3000)
        live = replicas[1:]
        assert len({r.log for r in live}) == 1
        assert client.completed_count == 6

    def test_decision_gossip_catches_up_lagging_replica(self):
        cluster, replicas, (client,) = make_smr()
        client.load_workload([("set", "x", 1)])
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=200)
        # All replicas converge on the decided slot even though only
        # n - f acks were strictly needed.
        cluster.sim.run(until=cluster.sim.now + 10)
        assert all(r.decided_value(0) is not None for r in replicas)


class TestBatchingPipelining:
    def test_burst_shares_slots(self):
        """8 commands arriving together fit in one 8-command batch slot."""
        cluster, replicas, (client,) = make_smr(
            replication=ReplicationConfig(batch_size=8, pipeline_depth=4)
        )
        client.load_workload(
            [("set", f"k{i}", i) for i in range(8)], closed_loop=False
        )
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=500)
        assert client.completed_count == 8
        assert replicas[0].executed_upto == 0  # one slot carried all 8
        assert len(replicas[0].decided_value(0).commands) == 8

    def test_batching_preserves_submission_order(self):
        cluster, replicas, (client,) = make_smr(
            state_machine_cls=AppendLog,
            replication=ReplicationConfig(batch_size=4, pipeline_depth=2),
        )
        workload = [("cmd", i) for i in range(10)]
        client.load_workload(workload, closed_loop=False)
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=2000)
        for replica in replicas:
            assert replica.state_machine.entries == workload

    def test_pipelining_overlaps_slots(self):
        """With batch_size 1, a deeper pipeline drains the same backlog in
        less simulated time than the sequential engine."""

        def drain(depth):
            cluster, replicas, (client,) = make_smr(
                replication=ReplicationConfig(batch_size=1, pipeline_depth=depth)
            )
            client.load_workload(
                [("set", f"k{i}", i) for i in range(6)], closed_loop=False
            )
            cluster.start()
            finished = cluster.sim.run_until(
                lambda: client.all_completed, timeout=2000
            )
            assert client.completed_count == 6
            return finished

        assert drain(4) < drain(1)

    def test_windowed_client_saturates_batches(self):
        cluster, replicas, clients = make_smr(
            clients=2, state_machine_cls=Counter, window=6,
            replication=ReplicationConfig(batch_size=8, pipeline_depth=4),
        )
        for client in clients:
            client.load_workload([("inc",)] * 6)
        cluster.start()
        cluster.sim.run_until(
            lambda: all(c.all_completed for c in clients), timeout=2000
        )
        cluster.sim.run(until=cluster.sim.now + 20)
        for replica in replicas:
            assert replica.state_machine.value == 12
        assert_no_duplicate_applications(replicas)
        # Batching used far fewer slots than commands.
        assert replicas[0].executed_upto < 11

    def test_batch_timeout_holds_underfull_batch(self):
        """A lone command waits out batch_timeout before being proposed."""
        cluster, replicas, (client,) = make_smr(
            replication=ReplicationConfig(
                batch_size=4, batch_timeout=3.0, pipeline_depth=2
            )
        )
        client.load_workload([("set", "x", 1)])
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=500)
        # 4 delays of consensus + the 3.0 the batch was held open.
        assert client.outcomes[0].latency == pytest.approx(7.0)

    def test_batch_timeout_survives_crash_recovery(self):
        """A crash wipes the flush timer; after recovery the next trigger
        must re-arm it, or the held batch would never be proposed."""
        from repro.smr import Request

        cluster, replicas, (client,) = make_smr(
            replication=ReplicationConfig(batch_size=4, batch_timeout=2.0)
        )
        cluster.start()
        replica = replicas[0]
        replica._handle_request(4, Request(client=4, request_id=0, command=("set", "a", 1)))
        cluster.sim.run(until=0.5)  # flush ran: deadline set, timer armed
        assert replica._batch_deadline is not None
        replica.crash()
        replica.recover()  # timers lost, deadline stale
        replica._handle_request(4, Request(client=4, request_id=1, command=("set", "b", 2)))
        cluster.sim.run(until=10.0)
        # The re-armed flush proposed the batch at the (stale) deadline and
        # the slot decided; pre-fix the commands sat pending forever.
        assert replica.decided_value(0).commands == (("set", "a", 1), ("set", "b", 2))

    def test_immediate_flush_keeps_seed_latency(self):
        """batch_timeout=0 (default) proposes immediately: 4 delays."""
        cluster, replicas, (client,) = make_smr(
            replication=ReplicationConfig(batch_size=8, pipeline_depth=4)
        )
        client.load_workload([("set", "x", 1)])
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=200)
        assert client.outcomes[0].latency == 4.0


class TestCrashModel:
    """Regression: a crashed replica's per-slot machinery must go silent
    (bug: slot contexts kept their own timers across a parent halt)."""

    def test_crash_halts_slot_timers(self):
        cluster, replicas, (client,) = make_smr()
        client.load_workload([("set", "x", 1), ("set", "y", 2)])
        cluster.start()
        cluster.sim.run(until=1.5)  # request delivered, slot 0 in flight
        replica = replicas[2]
        instance = replica._instances[0]
        assert instance.ctx._timers, "pacemaker timer should be armed"
        replica.crash()
        assert instance.ctx.halted
        assert not instance.ctx._timers, "slot timers must die with the parent"

    def test_slot_timers_stay_silent_while_down(self):
        """Pre-fix, the slot pacemaker kept firing and re-arming while the
        replica was 'down'; now the timer table stays empty."""
        cluster, replicas, (client,) = make_smr(base_timeout=5.0)
        client.load_workload([("set", "x", 1)])
        cluster.start()
        cluster.sim.run(until=1.5)
        replica = replicas[3]
        instance = replica._instances[0]
        view_at_crash = instance.view
        replica.crash()
        cluster.sim.run(until=100.0)  # many base_timeouts pass
        assert not instance.ctx._timers
        assert instance.view == view_at_crash

    def test_slot_contexts_resume_with_parent(self):
        cluster, replicas, (client,) = make_smr()
        client.load_workload([("set", "x", 1)])
        cluster.start()
        cluster.sim.run(until=1.5)
        replica = replicas[2]
        instance = replica._instances[0]
        replica.crash()
        replica.recover()
        assert not instance.ctx.halted
        cluster.sim.run_until(lambda: client.all_completed, timeout=500)
        assert client.completed_count == 1

    def test_crash_recover_mid_run_no_double_execution(self):
        cluster, replicas, (client,) = make_smr(state_machine_cls=Counter)
        client.load_workload([("inc",)] * 6)
        cluster.start()
        cluster.sim.schedule(5.0, replicas[2].crash)
        cluster.sim.schedule(60.0, replicas[2].recover)
        cluster.sim.run_until(lambda: client.all_completed, timeout=3000)
        assert client.completed_count == 6
        assert_no_duplicate_applications(replicas)
        for replica in (replicas[0], replicas[1], replicas[3]):
            assert replica.state_machine.value == 6


class TestClientSemantics:
    def test_duplicate_requests_execute_once(self):
        cluster, replicas, (client,) = make_smr(state_machine_cls=Counter)
        client.retry_timeout = 3.0  # aggressive retries force duplicates
        client.load_workload([("inc",)])
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=500)
        cluster.sim.run(until=cluster.sim.now + 50)
        for replica in replicas:
            assert replica.state_machine.value == 1

    def test_two_clients_interleave_safely(self):
        cluster, replicas, clients = make_smr(clients=2, state_machine_cls=Counter)
        clients[0].load_workload([("inc",), ("inc",)])
        clients[1].load_workload([("inc",), ("inc",)])
        cluster.start()
        cluster.sim.run_until(
            lambda: all(c.all_completed for c in clients), timeout=2000
        )
        cluster.sim.run(until=cluster.sim.now + 20)
        for replica in replicas:
            assert replica.state_machine.value == 4
        assert len({r.log for r in replicas}) == 1

    def test_open_loop_submission(self):
        cluster, replicas, (client,) = make_smr()
        client.load_workload(
            [("set", k, 1) for k in "abc"], closed_loop=False
        )
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=2000)
        assert client.completed_count == 3

    def test_latencies_reported(self):
        cluster, replicas, (client,) = make_smr()
        client.load_workload([("set", "a", 1), ("set", "b", 2)])
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=500)
        assert len(client.latencies()) == 2
        assert all(l > 0 for l in client.latencies())
