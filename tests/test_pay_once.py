"""A run pays for a send once, for "are we done?" once, and for a value once.

Three costs used to grow without being protocol work: the end-of-run
trace digest re-sized every recorded send, the SMR stop predicate
re-scanned every client's ``outcomes`` after every event, and both
structural walks re-walked a slot's ``Batch`` inside every message and
signed payload that embeds it.  All are now bookkeeping done where the
fact is established — ``Envelope.size`` at send time,
``SMRClient._completed`` where ``completed_at`` is set, the walk's result
on the first visit to the object (``IdentityMemo``) — and the replica's
own "which slots are in flight / decided but not executed" questions are
answered from state kept where it changes instead of scans of the whole
log.  These tests hold those seams to deterministic, zero-tolerance
counts over the canonical library.
"""

import dataclasses

import pytest

from repro._core import MEMO_LIMIT, pure
from repro.obs.recorder import FlightRecorder
from repro.obs.tracing import CausalTracer
from repro.scenarios import runner
from repro.scenarios.adapters import ADAPTERS, PacedSMRClient
from repro.scenarios.library import SCENARIOS, get_scenario
from repro.scenarios.spec import Crash
from repro.sim import Cluster, trace_digest
from repro.sim.events import Simulator
from repro.sim.network import Network, SynchronousDelay, payload_size
from repro.smr import NOOP, SMRClient
from repro.smr.replica import Batch, Reply, SMRReplica

from test_smr import make_smr

SMR_SCENARIOS = sorted(
    name for name, spec in SCENARIOS.items() if spec.protocol.endswith("-smr")
)


@pytest.fixture
def run_observed(monkeypatch):
    """``run_scenario`` that also hands back the ``Cluster`` it ran."""
    clusters = []

    def capture(*args, **kwargs):
        clusters.append(Cluster(*args, **kwargs))
        return clusters[-1]

    monkeypatch.setattr(runner, "Cluster", capture)

    def run(scenario, **observers):
        spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
        result = runner.run_scenario(spec, **observers)
        return result, clusters.pop()

    return run


@pytest.fixture
def top_level_size_calls(monkeypatch):
    """Counts non-recursive ``payload_size`` calls (a one-element list)."""
    calls, depth = [0], [0]
    real = pure.payload_size

    def counting(payload, *memo):
        if not depth[0]:
            calls[0] += 1
        depth[0] += 1
        try:
            return real(payload, *memo)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(pure, "payload_size", counting)
    return calls


class _BatchVisits:
    """What one walk did with the ``Batch`` objects it reached."""

    def __init__(self):
        #: Calls of the walk on a ``Batch`` (lookups and walks alike).
        self.visits = 0
        #: (id(memo), id(batch)) -> visits that walked the batch's entries.
        self.walks = {}
        #: Keeps every counted memo and batch alive, so ids stay unique.
        self.pinned = []


@pytest.fixture
def batch_visits(monkeypatch):
    """Instruments both walks: per memo (one per ``Network``, one per
    ``KeyRegistry``) and per distinct ``Batch``, how many visits there
    were and how many of them had to walk the batch's entries."""
    observed = {}
    for name in ("payload_size", "canonical_bytes"):
        seen = observed[name] = _BatchVisits()

        def counting(obj, memo=None, *, real=getattr(pure, name), seen=seen):
            if type(obj) is not Batch or memo is None:
                return real(obj, memo)
            seen.visits += 1
            entry = memo.entries.get(id(obj))
            resident = entry is not None and entry[0] is obj
            result = real(obj, memo)
            if not resident:
                key = (id(memo), id(obj))
                seen.pinned.append((memo, obj))
                seen.walks[key] = seen.walks.get(key, 0) + 1
                # The walk proved the batch immutable and admitted it:
                # only an eviction can make a later visit walk again.
                assert memo.entries[id(obj)][0] is obj
            return result

        monkeypatch.setattr(pure, name, counting)
    return observed


def _clients(cluster):
    return [p for p in cluster.processes.values() if isinstance(p, SMRClient)]


def _scanned(client):
    """Completions counted the slow way, by walking ``outcomes``."""
    return sum(o.completed for o in client.outcomes.values())


def _replicas(cluster):
    return [p for p in cluster.processes.values() if isinstance(p, SMRReplica)]


def _assert_bookkeeping_equals_a_scan(replica):
    """The replica's tracked slot state against the scanning definitions
    it replaced (whole ``_instances`` map, whole ``_decided`` log)."""
    assert replica.inflight_instances == sum(
        1 for slot in replica._instances if slot not in replica._decided
    )
    assert replica._decided_unexecuted == {
        slot for slot in replica._decided if slot > replica._executed_upto
    }


# ---------------------------------------------------------------------------
# Size once
# ---------------------------------------------------------------------------


class TestRecordedSendSize:
    @pytest.mark.parametrize("observed", [False, True], ids=["plain", "traced"])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_recorded_sizes_are_the_accounted_bytes(
        self, run_observed, name, observed
    ):
        # "traced" stamps every envelope through TeeTracer's _replace;
        # the library's partition scenarios cover held/released sends.
        observers = (
            {"tracer": CausalTracer(), "recorder": FlightRecorder()}
            if observed
            else {}
        )
        result, cluster = run_observed(name, **observers)
        sends = cluster.trace.sends
        assert len(sends) == result.messages_sent
        assert sum(env.size for env in sends) == result.bytes_sent
        # Payloads are immutable once sent, so the size accounted then is
        # the size a walk finds now — why the digest may format it.
        assert all(env.size == payload_size(env.payload) for env in sends)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_a_run_sizes_each_distinct_send_once(
        self, run_observed, top_level_size_calls, name
    ):
        result, cluster = run_observed(name)
        stats = cluster.network.stats
        assert top_level_size_calls[0] == stats.size_cache_misses
        digest = trace_digest(cluster.trace, cluster.sim, stats)
        assert digest == result.trace_digest
        assert top_level_size_calls[0] == stats.size_cache_misses

    def test_partition_held_and_released_envelopes_keep_their_size(self):
        sim = Simulator()
        net = Network(
            sim, delay_model=SynchronousDelay(1.0), record_deliveries=True
        )
        for pid in (0, 1):
            net.register(pid, lambda src, payload: None)
        recorded = []
        net.add_send_hook(recorded.append)
        net.start_partition([{0}, {1}])
        payload = ("held", 7)
        sent = net.send(0, 1, payload)
        assert net.held_messages == (sent,) and recorded == [sent]
        sim.schedule_at(5.0, net.heal_partition)
        sim.run()
        (released,) = net.delivery_log
        assert (sent.deliver_time, released.deliver_time) == (1.0, 6.0)
        assert released.size == sent.size == payload_size(payload)
        assert net.stats.bytes_sent == sent.size


# ---------------------------------------------------------------------------
# Encode once
# ---------------------------------------------------------------------------


class TestEncodeOnce:
    @pytest.mark.parametrize("name", SMR_SCENARIOS)
    def test_each_batch_is_walked_at_most_once_while_resident(
        self, run_observed, batch_visits, name
    ):
        result, cluster = run_observed(name)
        assert result.ok
        # Every SMR engine ships batches; pbft-smr signs digests of them
        # rather than the batches themselves.
        walked = {
            "payload_size": True,
            "canonical_bytes": get_scenario(name).protocol == "fbft-smr",
        }
        for walk, seen in batch_visits.items():
            assert bool(seen.visits) == walked[walk]
            if not seen.visits:
                continue
            # One memo per owner (the run's Network, the run's
            # KeyRegistry): every walk went through that one.
            memos = {id(memo): memo for memo, _ in seen.pinned}
            (memo,) = memos.values()
            walks = list(seen.walks.values())
            # A batch rides in Theta(n) messages and signed payloads of
            # its slot; all but the first visit were lookups.
            assert seen.visits >= 4 * sum(walks) > 0
            # Eviction is the only way back to a walk (the fixture
            # asserts each walk left the batch resident), and a memo
            # that never filled never evicted.
            if len(memo) < MEMO_LIMIT:
                assert set(walks) == {1}
        sized = batch_visits["payload_size"].pinned[0][0]
        assert sized is cluster.network._size_memo

    def test_a_batch_evicted_by_churn_is_walked_again_and_only_then(
        self, batch_visits
    ):
        net = Network(Simulator(), delay_model=SynchronousDelay(1.0))
        net.register(0, lambda src, payload: None)
        batch = Batch(entries=tuple((9, i, ("set", f"k{i}", i)) for i in range(8)))
        seen = batch_visits["payload_size"]

        def send_around(batch):
            for view in range(3):
                net.send(0, 0, ("ack", batch, view))

        send_around(batch)
        assert (seen.visits, sum(seen.walks.values())) == (3, 1)
        for i in range(MEMO_LIMIT):  # fresh payloads push the batch out
            net.send(0, 0, ("filler", i))
        send_around(batch)
        assert (seen.visits, sum(seen.walks.values())) == (6, 2)
        assert net.stats.bytes_sent == (
            6 * payload_size(("ack", batch, 0))
            + MEMO_LIMIT * payload_size(("filler", 0))
        )


# ---------------------------------------------------------------------------
# Count once
# ---------------------------------------------------------------------------


class _NoScan(dict):
    """An ``outcomes`` dict that refuses to be walked."""

    def _refuse(self, *args):
        raise AssertionError("completion check iterated outcomes")

    __iter__ = keys = values = items = _refuse


class TestCompletionCounter:
    @pytest.mark.parametrize("name", SMR_SCENARIOS)
    def test_counter_equals_a_scan_after_every_smr_scenario(
        self, run_observed, name
    ):
        result, cluster = run_observed(name)
        clients = _clients(cluster)
        assert clients
        assert all(c.completed_count == _scanned(c) for c in clients)
        assert result.completed_requests == sum(
            c.completed_count for c in clients
        )

    def test_counter_equals_a_scan_when_a_client_crashes(self, run_observed):
        # No library scenario crashes a client; derive one.
        base = get_scenario("smr-throughput-seed")
        spec = dataclasses.replace(
            base, name="client-crash", faults=(Crash(at=6.0, pid=base.n),)
        )
        result, cluster = run_observed(spec)
        crashed, survivor = _clients(cluster)
        assert result.ok and survivor.all_completed
        assert 0 < crashed.completed_count < len(crashed.outcomes)
        assert not crashed.all_completed
        assert crashed.completed_count == _scanned(crashed)
        assert survivor.completed_count == _scanned(survivor)

    def test_replies_after_completion_do_not_count_twice(self):
        cluster, replicas, (client,) = make_smr()
        client.load_workload([("set", "x", 1)])
        cluster.start()
        cluster.sim.run()  # all n replies delivered; f + 1 completed it
        assert client.completed_count == 1
        outcome = client.outcomes[0]
        for replica in replicas:
            client.on_message(
                replica.pid,
                Reply(client.pid, 0, outcome.result, outcome.slot),
            )
        assert client.completed_count == 1 and client.all_completed

    def test_not_complete_without_submissions_or_with_queued_work(self):
        cluster, _, (client,) = make_smr()
        cluster.start()
        cluster.sim.run()
        assert not client.all_completed  # nothing was ever submitted
        client.submit(("set", "x", 1))
        cluster.sim.run_until(lambda: client.all_completed, timeout=200)
        client.load_workload([("set", "y", 2)])
        assert client.completed_count == 1
        assert not client.all_completed  # queued, not yet submitted

    def test_paced_clients_are_not_complete_before_their_first_timer(self):
        spec = get_scenario("smr-open-loop")
        built = ADAPTERS[spec.protocol].build(spec)
        assert built.clients
        assert all(isinstance(c, PacedSMRClient) for c in built.clients)
        cluster = Cluster(built.processes, delay_model=spec.delay.build())
        cluster.start()
        # on_start has not run: nothing submitted, everything planned.
        assert not any(c.outcomes or c.all_completed for c in built.clients)
        cluster.sim.run_until(
            lambda: all(c.all_completed for c in built.clients), timeout=500
        )
        assert all(c.completed_count == len(c.outcomes) for c in built.clients)

    @pytest.mark.parametrize("window", [1, 4])
    def test_polling_completion_never_iterates_outcomes(self, window):
        cluster, _, (client,) = make_smr(window=window)
        client.outcomes = _NoScan()
        client.load_workload([("set", f"k{i}", i) for i in range(6)])
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=500)
        assert client.completed_count == 6 == len(client.outcomes)


# ---------------------------------------------------------------------------
# Track the in-flight and the decided-but-unexecuted slots, do not scan
# ---------------------------------------------------------------------------


class TestReplicaSlotBookkeeping:
    @pytest.mark.parametrize("name", SMR_SCENARIOS)
    def test_tracked_slots_equal_a_scan_throughout_every_smr_scenario(
        self, run_observed, monkeypatch, name
    ):
        checks = [0]
        real = SMRReplica._unassigned_pending

        def checked(replica):
            # Every proposal flush and every lazily created instance asks;
            # crashes, recoveries, catchup and gossip all sit between asks.
            checks[0] += 1
            _assert_bookkeeping_equals_a_scan(replica)
            return real(replica)

        monkeypatch.setattr(SMRReplica, "_unassigned_pending", checked)
        result, cluster = run_observed(name)
        assert result.ok and checks[0]
        for replica in _replicas(cluster):
            _assert_bookkeeping_equals_a_scan(replica)

    def test_out_of_order_decisions_park_and_release_their_slots(self):
        cluster, replicas, (client,) = make_smr()
        cluster.start()
        replica = replicas[0]
        batch = Batch(entries=((client.pid, 0, ("set", "x", 1)),))
        replica._adopt_decision(2, batch)  # slots 0 and 1 are still open
        _assert_bookkeeping_equals_a_scan(replica)
        assert replica._decided_unexecuted == {2}
        assert replica.inflight_instances == 2  # the gap slots it opened
        replica._adopt_decision(0, NOOP)
        assert replica._decided_unexecuted == {2}
        replica._adopt_decision(1, NOOP)  # gap closed: 1 and 2 execute
        assert replica._decided_unexecuted == set()
        assert replica.inflight_instances == 0
        assert replica.executed_upto == 2
        _assert_bookkeeping_equals_a_scan(replica)

    def test_a_remote_checkpoint_jump_drops_the_slots_it_covers(
        self, monkeypatch
    ):
        cluster, replicas, _ = make_smr()
        cluster.start()
        replica = replicas[0]
        monkeypatch.setattr(replica, "_make_stable", lambda checkpoint: None)
        replica._catchup.begin(0)  # mid state transfer: no gap instances
        for slot in (2, 5):
            replica._adopt_decision(slot, NOOP)
        assert replica._decided_unexecuted == {2, 5}

        class _Checkpoint:
            slot = 3
            state = replica.state_machine.snapshot()

        replica._install_remote_checkpoint(_Checkpoint)
        assert replica.executed_upto == 3
        assert replica._decided_unexecuted == {5}
        # Late gossip for a slot the snapshot already covers is logged
        # but is not waiting for execution.
        replica._adopt_decision(1, NOOP)
        assert replica._decided_unexecuted == {5}
        _assert_bookkeeping_equals_a_scan(replica)
