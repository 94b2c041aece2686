"""A run pays for a send once, for "are we done?" once, for a value once —
and for a broadcast once, not once per recipient.

Three costs used to grow without being protocol work: the end-of-run
trace digest re-sized every recorded send, the SMR stop predicate
re-scanned every client's ``outcomes`` after every event, and both
structural walks re-walked a slot's ``Batch`` inside every message and
signed payload that embeds it.  All are now bookkeeping done where the
fact is established — ``FanOut.size`` at send time,
``SMRClient._completed`` where ``completed_at`` is set, the walk's result
on the first visit to the object (``IdentityMemo``) — and the replica's
own "which slots are in flight / decided but not executed" questions are
answered from state kept where it changes instead of scans of the whole
log.  The transport, the trace recorder, the digest and the oracles'
audits in turn treat one payload going to ``k`` recipients as one
fan-out with one record — no ``Envelope`` per recipient unless a rule,
interceptor, partition or tracer looks at it — and ``run_until_decided``
waits on a shrinking set.  These tests hold those seams to
deterministic, zero-tolerance counts over the canonical library, and the
fan-out to being indistinguishable from its ``k`` sends.
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._core import MEMO_LIMIT, pure
from repro.core.messages import Ack
from repro.core.protocol import DecidingProcess
from repro.crypto.keys import KeyRegistry, Signer
from repro.obs.recorder import FlightRecorder
from repro.scenarios import runner
from repro.scenarios.adapters import ADAPTERS, PacedSMRClient
from repro.scenarios.library import SCENARIOS, get_scenario
from repro.scenarios.spec import Crash
from repro.sim import Cluster, network, trace_digest
from repro.sim.events import Simulator
from repro.sim.network import (
    DelayRule,
    FanOut,
    Network,
    PartialSynchronyDelay,
    RandomDelay,
    RoundSynchronousDelay,
    SynchronousDelay,
    payload_size,
)
from repro.sim.process import MESSAGE_FACTS, Process
from repro.sim.trace import TraceRecorder
from repro.smr import NOOP, SMRClient
from repro.smr.replica import Batch, Reply, SMRReplica

from helpers import envelopes_of, examples

from test_smr import make_smr

SMR_SCENARIOS = sorted(
    name for name, spec in SCENARIOS.items() if spec.protocol.endswith("-smr")
)


@pytest.fixture
def run_observed(monkeypatch):
    """``run_scenario`` that also hands back the ``Cluster`` it ran; a
    ``records`` list passed in is filled with the run's send records."""
    clusters, hooked = [], []

    def capture(*args, **kwargs):
        clusters.append(Cluster(*args, **kwargs))
        if hooked:
            clusters[-1].network.add_send_hook(hooked.pop().append)
        return clusters[-1]

    monkeypatch.setattr(runner, "Cluster", capture)

    def run(scenario, records=None, **observers):
        spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
        if records is not None:
            hooked.append(records)
        result = runner.run_scenario(spec, **observers)
        return result, clusters.pop()

    return run


@pytest.fixture(scope="module")
def finished_run():
    """One plain run per canonical scenario, made on first request and
    shared by the sweeps that only *read* a finished run (a sweep that
    instruments the run itself keeps its own, through ``run_observed``):
    ``name -> (result, cluster, built, records)``, ``records`` being
    every send record of the run."""
    finished = {}

    def run(name):
        if name not in finished:
            with pytest.MonkeyPatch.context() as patch:
                seen, records = [], []
                real_cluster, real_eval = Cluster, runner.evaluate_invariants

                def cluster(*args, **kwargs):
                    seen.append(real_cluster(*args, **kwargs))
                    seen[-1].network.add_send_hook(records.append)
                    return seen[-1]

                def evaluate(spec, built, *rest):
                    seen.append(built)
                    return real_eval(spec, built, *rest)

                patch.setattr(runner, "Cluster", cluster)
                patch.setattr(runner, "evaluate_invariants", evaluate)
                result = runner.run_scenario(get_scenario(name))
            finished[name] = (result, *seen, records)
        return finished[name]

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
    """The replica's slot bookkeeping: ``_instances`` holds undecided
    slots only (``inflight_instances`` is its length), and
    ``_decided_unexecuted`` equals its scan of the whole ``_decided`` log."""
    assert not replica._instances.keys() & replica._decided.keys()
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
        self, run_observed, finished_run, name, observed
    ):
        # "traced" sends every protocol message down the enveloped
        # path; the library's partition scenarios cover held/released
        # sends.
        if observed:
            records = []
            result, cluster = run_observed(
                name, records=records, recorder=FlightRecorder()
            )
        else:
            result, cluster, _, records = finished_run(name)
        stats = cluster.network.stats
        assert sum(len(r.dsts) for r in records) == result.messages_sent
        assert sum(cluster.trace.messages_by_type().values()) == stats.messages_sent
        assert sum(len(r.dsts) * r.size for r in records) == stats.bytes_sent
        assert stats.bytes_sent == result.bytes_sent
        # Payloads are immutable once sent, so the size accounted then is
        # the size a walk finds now — why the digest may format it.
        assert all(r.size == payload_size(r.payload) for r in records)

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
        net = Network(sim, delay_model=SynchronousDelay(1.0))
        delivered = []
        for pid in (0, 1):
            net.register(
                pid, lambda src, payload: delivered.append((src, payload, sim.now))
            )
        recorded = []
        net.add_send_hook(recorded.append)
        net.start_partition([{0}, {1}])
        payload = ("held", 7)
        sent = net.send(0, 1, payload)
        assert recorded == [sent] and net.held_messages == tuple(envelopes_of(sent))
        sim.schedule_at(5.0, net.heal_partition)
        sim.run()
        # The record keeps the time decided at the send; the release is
        # re-timed from the heal.
        assert sent.deliver_times == (1.0,) and delivered == [(0, payload, 6.0)]
        assert net.stats.bytes_sent == sent.size == payload_size(payload)


# ---------------------------------------------------------------------------
# Encode once
# ---------------------------------------------------------------------------


#: Visits of a batch per walk of it, at least, by walk and by the
#: consensus class that decides the slots.  With no fault at n = 4 the
#: vanilla class visits each batch exactly 2n + 1 = 9 times to size it
#: (its proposal, n acks, n decision gossips) and twice to encode it (the
#: proposal signed once, verified once); a crash entry misses the crashed
#: replica's share, hence 7.  PBFT sizes it 3n + 1 = 13 times (proposal,
#: prepares and commits carry it) and signs none of it.  The generalized
#: class (the n = 7, t < f entry) adds the signed ``AckSig`` round and
#: the ``Commit`` round, whose certificate carries the batch once.
VISITS_PER_WALK = {
    ("payload_size", "FastBFTProcess"): 7,
    ("canonical_bytes", "FastBFTProcess"): 2,
    ("payload_size", "GeneralizedFBFTProcess"): 15,
    ("canonical_bytes", "GeneralizedFBFTProcess"): 13,
    ("payload_size", "PBFTProcess"): 13,
}


class TestEncodeOnce:
    @pytest.mark.parametrize("name", SMR_SCENARIOS)
    def test_each_batch_is_walked_at_most_once_while_resident(
        self, run_observed, batch_visits, name
    ):
        result, cluster = run_observed(name)
        assert result.ok
        (consensus,) = {
            type(replica.instance_factory(replica.pid, 0, NOOP)).__name__
            for replica in _replicas(cluster)
        }
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
            assert seen.visits >= VISITS_PER_WALK[walk, consensus] * sum(walks) > 0
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


# ---------------------------------------------------------------------------
# Fan out once: a broadcast is its k sends
# ---------------------------------------------------------------------------

DELAY_MODELS = {
    "synchronous": lambda seed: SynchronousDelay(1.0),
    "round": lambda seed: RoundSynchronousDelay(1.0),
    "random": lambda seed: RandomDelay(0.25, 2.0, seed=seed),
    # GST in mid-script: draws before it, the fixed bound after.
    "partial-synchrony": lambda seed: PartialSynchronyDelay(
        delta=1.0, gst=2.0, pre_gst_max=6.0, seed=seed
    ),
}
FEATURES = ("rule", "interceptor", "partition", "tracer")
HEAL_AT = 2.5

#: Plain values (the flight recorder ignores them: they stay on the
#: untraced path) and protocol messages (it stamps them; the rule below
#: re-times them).  Each is one object, sent many times.
PAYLOADS = ("ping", ("tuple", 7), Ack("v", 1), Ack("w", 2))

#: (time, src, payload index, include_self) — a step is one broadcast.
SCRIPT = (
    (0.0, 0, 2, True), (0.0, 1, 2, True), (0.0, 1, 0, False),
    (0.5, 2, 1, True), (1.0, 0, 3, False), (2.0, 3, 2, True),
    (2.0, 3, 2, True), (3.0, 1, 3, True), (3.25, 2, 0, True),
)


def _scripted_run(fan_out, model, n, features, script, seed=11):
    """Play ``script`` on a fresh network — each step as one broadcast
    (``fan_out``) or as its sends, one by one — and report everything an
    observer could tell the two apart by, records as their per-recipient
    envelopes, plus how many ``Envelope``s the run itself built."""
    sim = Simulator()
    net = Network(
        sim,
        delay_model=DELAY_MODELS[model](seed),
        interceptor=(
            (lambda env: env.deliver_time + 0.125 if env.dst == 1 else None)
            if "interceptor" in features
            else None
        ),
    )
    deliveries = []
    for pid in range(n):
        net.register(
            pid,
            lambda src, payload, pid=pid: deliveries.append(
                (sim.now, pid, src, payload)
            ),
        )
    trace = TraceRecorder(net)
    hooked = []
    net.add_send_hook(hooked.append)
    recorder = FlightRecorder() if "tracer" in features else None
    if recorder is not None:
        net.install_tracer(recorder)
    if "rule" in features:
        net.set_delay_rule(
            DelayRule("late-acks", extra_delay=0.75, payload_types=("Ack",), dst={0})
        )
    held_at_heal = []
    if "partition" in features:
        net.start_partition([{0}, set(range(1, n))])

        def heal():
            held_at_heal.extend(net.held_messages)
            net.heal_partition()

        sim.schedule_at(HEAL_AT, heal)
    returned = []

    def step(src, payload, include_self):
        if fan_out:
            records = [net.broadcast(src, payload, include_self=include_self)]
        else:
            records = [
                net.send(src, dst, payload)
                for dst in net.process_ids
                if include_self or dst != src
            ]
        returned.append(records)

    for at, src, index, include_self in script:
        sim.schedule_at(
            at, lambda a=(src % n, PAYLOADS[index], include_self): step(*a)
        )
    built = []
    with pytest.MonkeyPatch.context() as patch:
        real = network.Envelope
        patch.setattr(
            network, "Envelope", lambda *fields: built.append(1) or real(*fields)
        )
        sim.run()
    assert [r for records in returned for r in records if r] == hooked
    return {
        "returned": [
            [env for r in records if r for env in envelopes_of(r)]
            for records in returned
        ],
        "built": len(built),
        "deliveries": deliveries,
        "stats": net.stats,
        "sends": [env for r in hooked for env in envelopes_of(r)],
        "count": sum(trace.messages_by_type().values()),
        "by_type": trace.messages_by_type(),
        "digest": trace_digest(trace, sim, net.stats),
        "held_at_heal": held_at_heal,
        "observed": recorder and list(recorder.events),
        "clock": (sim.now, sim.events_processed),
    }


def _every_machinery(test):
    """Every delay model x nothing, each feature alone, all together."""
    combos = [(), *((f,) for f in FEATURES), FEATURES]
    test = pytest.mark.parametrize("features", combos, ids="+".join)(test)
    return pytest.mark.parametrize("model", sorted(DELAY_MODELS))(test)


class TestFanOutEqualsSends:
    @_every_machinery
    def test_a_fan_out_expands_to_what_its_sends_record(self, model, features):
        together = _scripted_run(True, model, 4, features, SCRIPT)
        apart = _scripted_run(False, model, 4, features, SCRIPT)
        assert together == apart
        sent = together["stats"].messages_sent
        assert sent == together["count"] == len(together["sends"])
        assert sent == sum(map(len, together["returned"]))
        assert len(together["deliveries"]) == sent  # held ones were released
        if "partition" in features:
            assert 0 < together["stats"].messages_held == len(together["held_at_heal"])

    @_every_machinery
    def test_an_envelope_is_built_only_for_who_looks_at_one(self, model, features):
        run = _scripted_run(True, model, 4, features, SCRIPT)
        acks = run["by_type"]["Ack"]
        if "tracer" in features:  # the recorder stamps the types it wants
            assert sum(e.phase == "send" for e in run["observed"]) == acks
        looked_at = {
            (): 0,  # the zero-rule path
            ("tracer",): acks,
            ("partition",): sum(e.send_time < HEAL_AT for e in run["sends"]),
        }  # rules and the interceptor: every recipient of every send
        assert run["built"] == looked_at.get(features, run["stats"].messages_sent)

    @settings(max_examples=examples(120), deadline=None)
    @given(
        model=st.sampled_from(sorted(DELAY_MODELS)),
        seed=st.integers(0, 2**16),
        n=st.integers(1, 5),
        features=st.sets(st.sampled_from(FEATURES)),
        script=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 3.0]),
                st.integers(0, 4),
                st.integers(0, len(PAYLOADS) - 1),
                st.booleans(),
            ),
            max_size=12,
        ),
    )
    def test_any_script_any_machinery(self, model, seed, n, features, script):
        script = sorted(script, key=lambda step: step[0])
        together = _scripted_run(True, model, n, features, script, seed)
        apart = _scripted_run(False, model, n, features, script, seed)
        assert together == apart

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_the_send_path_is_entered_once_per_send_or_broadcast(
        self, run_observed, monkeypatch, name
    ):
        calls = {"send": 0, "broadcast": 0, "_send_general": 0}
        fanned = [0]

        def counting(method):
            real = getattr(Network, method)

            def wrapper(self, *args, **kwargs):
                calls[method] += 1
                result = real(self, *args, **kwargs)
                if method == "_send_general" and result:
                    fanned[0] += len(result.dsts)
                return result

            monkeypatch.setattr(Network, method, wrapper)

        for method in calls:
            counting(method)
        result, cluster = run_observed(name)
        assert calls["broadcast"] > 0
        assert calls["_send_general"] == calls["send"] + calls["broadcast"]
        assert fanned[0] == result.messages_sent > calls["_send_general"]


class _Hooked:
    """A network of ``n`` silent processes with a recording send hook."""

    def __init__(self, n, delay_model=None):
        self.sim = Simulator()
        self.net = Network(self.sim, delay_model=delay_model or SynchronousDelay(1.0))
        for pid in range(n):
            self.net.register(pid, lambda src, payload: None)
        self.hooked = []
        self.net.add_send_hook(self.hooked.append)

    def assert_untouched(self):
        stats = self.net.stats
        assert (stats.messages_sent, stats.bytes_sent, stats.messages_held) == (0, 0, 0)
        assert stats.size_cache_hits + stats.size_cache_misses == 0
        assert self.hooked == [] and self.sim.pending_events == 0
        assert self.net.held_messages == ()


class TestFanOutEdgeCases:
    def test_an_unknown_destination_sends_nothing_at_all(self):
        world = _Hooked(3)
        with pytest.raises(ValueError, match="unknown destination process 9"):
            world.net.send(0, 9, "lost")
        world.assert_untouched()
        # Not even the recipients that precede the bad one.
        with pytest.raises(ValueError, match="unknown destination process 9"):
            world.net._send_general(0, (1, 2, 9), "lost")
        world.assert_untouched()

    def test_an_invalid_delay_mid_fan_out_sends_nothing_at_all(self):
        class ThirdIsBroken:
            def delay(self, src, dst, send_time):
                return math.nan if dst == 2 else 1.0

        world = _Hooked(4, ThirdIsBroken())
        with pytest.raises(ValueError, match="invalid delay"):
            world.net.broadcast(0, "half")
        assert world.net.stats.messages_sent == 0
        assert world.hooked == [] and world.sim.pending_events == 0

    def test_a_fan_out_with_no_recipients_is_nothing(self):
        world = _Hooked(1)
        assert world.net.broadcast(0, "alone", include_self=False) is None
        world.assert_untouched()
        assert world.net.broadcast(0, "self") is world.hooked[0]  # k = 1 works
        assert len(world.hooked) == 1

    def test_held_recipients_are_held_one_by_one(self):
        world = _Hooked(5)
        net = world.net
        net.start_partition([{0, 1}, {2, 3}])  # 4 is the implicit group
        record = net.broadcast(0, "split")
        assert world.hooked == [record]  # one call, all five
        assert record.dsts == (0, 1, 2, 3, 4)
        assert net.held_messages == tuple(envelopes_of(record)[2:])
        assert net.stats.messages_held == 3
        assert net.stats.messages_sent == 5
        assert world.sim.pending_events == 2
        net.heal_partition()
        assert net.held_messages == () and world.sim.pending_events == 5
        assert net.stats.messages_held == 3  # a count of holds, not a gauge


def _audited_errors(built, records):
    """What the run's certificate audit reports after seeing ``records``."""
    audit = built.adapter.certificate_audit(built)
    for record in records:
        audit.add(record)
    return audit.errors


class TestOraclesTallyAFanOutOnce:
    FBFT = sorted(n for n, spec in SCENARIOS.items() if spec.protocol == "fbft")

    @pytest.fixture
    def audited(self, run_observed, monkeypatch):
        """Run a scenario; hand back its built scenario, its send records
        and every certificate the audit validated."""
        from repro.scenarios import adapters

        validated, given = [], []
        real_valid = adapters.progress_certificate_valid
        real_eval = runner.evaluate_invariants

        def valid(cert, *args):
            validated.append(cert)
            return real_valid(cert, *args)

        def evaluate(spec, built, *rest):
            given.append(built)
            return real_eval(spec, built, *rest)

        monkeypatch.setattr(adapters, "progress_certificate_valid", valid)
        monkeypatch.setattr(runner, "evaluate_invariants", evaluate)

        def run(name):
            records = []
            result, _ = run_observed(name, records=records)
            return result, given.pop(), records, validated

        return run

    @pytest.mark.parametrize("name", FBFT)
    def test_each_honest_proposal_is_audited_once(self, audited, name):
        result, built, records, validated = audited(name)
        (verdict,) = [v for v in result.verdicts if v.name == "certificates"]
        assert verdict.passed and verdict.detail == "all traced certificates valid"
        honest = set(built.honest_pids)
        proposals = [
            record
            for record in records
            if type(record.payload).__name__ == "Propose"
            and record.payload.view > 1
            and record.src in honest
        ]
        assert [id(cert) for cert in validated] == [
            id(record.payload.cert) for record in proposals
        ]
        # A proposal reaches everyone: n messages, one record, one audit.
        assert all(len(record.dsts) == built.config.n for record in proposals)

    def test_a_bad_certificate_is_reported_once_not_once_per_copy(self, audited):
        _, built, records, _ = audited("silent-leader")
        sent = next(
            r for r in records
            if type(r.payload).__name__ == "Propose" and r.payload.view > 1
        )
        good = sent.payload
        assert len(sent.dsts) == built.config.n
        bare = dataclasses.replace(
            good, cert=dataclasses.replace(good.cert, signatures=())
        )
        # One proposal object, sent recipient by recipient: n records.
        world = _Hooked(built.config.n)
        forged = [world.net.send(sent.src, dst, bare) for dst in sent.dsts]
        assert len(forged) == built.config.n and forged == world.hooked
        errors = _audited_errors(built, records + forged)
        assert errors == [
            f"invalid progress certificate on proposal "
            f"({bare.value!r}, view {bare.view}) from {sent.src}"
        ]
        # The same proposal object from another (honest) sender is
        # another proposal.
        other = next(p for p in built.honest_pids if p != sent.src)
        relayed = [record._replace(src=other) for record in forged]
        assert len(_audited_errors(built, forged + relayed)) == 2

    def test_quorum_shortfall_counts_senders_not_payload_objects(self, audited):
        from repro.scenarios.invariants import QuorumTally

        _, built, _, _ = audited("fast-path-clean")
        quorum = built.config.fast_quorum
        ack = Ack("v", 1)  # one object relayed by every sender but one,
        world = _Hooked(built.config.n)  # recipient by recipient
        tally = QuorumTally(built.config)
        world.net.add_send_hook(tally.add)
        for src in range(quorum - 1):
            for dst in range(built.config.n):
                world.net.send(src, dst, ack)
        assert tally.shortfall() == 1.0
        world.net.send(quorum - 1, 0, ack)
        assert tally.shortfall() is None

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_quorum_shortfall_equals_a_per_envelope_tally(self, finished_run, name):
        result, _, built, records = finished_run(name)
        (agreement,) = [v for v in result.verdicts if v.name == "agreement"]
        if built.mode == "smr" or built.config is None:
            assert agreement.margin is None  # no tally is attached
            return
        tallies = {}
        for env in (env for record in records for env in envelopes_of(record)):
            kind = type(env.payload)
            facts = MESSAGE_FACTS.get(kind)
            if facts is None or facts.quorum is None:
                continue
            threshold = getattr(built.config, facts.quorum, None)
            view = getattr(env.payload, facts.view)
            if threshold is None:
                continue
            key = (kind, view, repr(getattr(env.payload, "value", None)))
            tallies.setdefault(key, (set(), threshold))[0].add(env.src)
        short = [t - len(s) for s, t in tallies.values() if len(s) < t]
        assert agreement.margin == (float(min(short)) if short else None)


# ---------------------------------------------------------------------------
# Digest once per fan-out: the same bytes as one line per envelope
# ---------------------------------------------------------------------------


def _digest_as_defined(records, trace, sim, stats):
    """The digest's written definition: one formatted line per message of
    ``records``, per decision, and for the final counters, hashed in
    order."""
    h = hashlib.sha256()
    for env in (env for record in records for env in envelopes_of(record)):
        h.update(
            (
                f"s|{env.src}|{env.dst}|{type(env.payload).__name__}"
                f"|{env.size}"
                f"|{env.send_time!r}|{env.deliver_time!r}\n"
            ).encode()
        )
    for decision in trace.decisions:
        h.update(
            f"d|{decision.pid}|{decision.value!r}|{decision.time!r}\n".encode()
        )
    h.update(
        (
            f"e|{sim.events_processed}|{sim.now!r}"
            f"|{stats.messages_sent}|{stats.messages_delivered}\n"
        ).encode()
    )
    return h.hexdigest()


def _assert_digest_as_defined(records, trace, sim, stats):
    digest = trace_digest(trace, sim, stats)
    assert digest == _digest_as_defined(records, trace, sim, stats)
    return digest


#: ``0``, ``0.0`` and ``-0.0`` are equal and format differently; so do
#: ``2`` and ``2.0``.  A record with no recipients is no line at all.
_TIMES = (0, 0.0, -0.0, 1.5, 2, 2.0)

_records = st.integers(0, 4).flatmap(
    lambda k: st.builds(
        FanOut,
        src=st.sampled_from((0, 1, 2)),
        dsts=st.tuples(*[st.sampled_from((0, 1, 2, 3))] * k),
        payload=st.sampled_from(PAYLOADS),
        send_time=st.sampled_from(_TIMES),
        deliver_times=st.tuples(*[st.sampled_from(_TIMES)] * k),
        size=st.sampled_from((2, 7, 1000)),
    )
)


class TestDigestIsItsDefinition:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_on_every_canonical_scenario(self, finished_run, name):
        golden = json.loads(
            (Path(__file__).parent / "golden" / "scenario_digests.json").read_text()
        )
        result, cluster, _, records = finished_run(name)
        digest = _assert_digest_as_defined(
            records, cluster.trace, cluster.sim, cluster.network.stats
        )
        assert digest == result.trace_digest == golden[name]

    @settings(max_examples=examples(200), deadline=None)
    @given(records=st.lists(_records, max_size=12))
    def test_on_hand_built_records(self, records):
        world = _Hooked(1)
        trace = TraceRecorder()  # no network: the records are fed by hand
        for record in records:
            trace.record_send(record)
        _assert_digest_as_defined(records, trace, world.sim, world.net.stats)

    def test_on_an_empty_trace(self):
        world = _Hooked(1)
        _assert_digest_as_defined([], TraceRecorder(), world.sim, world.net.stats)


# ---------------------------------------------------------------------------
# Wait on the undecided, do not re-scan the decided
# ---------------------------------------------------------------------------


class _DecidesAt(DecidingProcess):
    def __init__(self, pid, at, value="v"):
        super().__init__(pid, value)
        self.at = at

    def on_start(self):
        self.ctx.set_timer("decide", self.at, lambda: self.decide(self.input_value))


class _Bystander(Process):
    """No ``decision_hook``: the cluster never hears of a decision."""


class TestRunUntilDecided:
    def test_returns_at_once_when_everyone_already_decided(self):
        cluster = Cluster([_DecidesAt(0, 1.0), _DecidesAt(1, 2.0)])
        assert cluster.run_until_decided().decision_time == 2.0
        events = cluster.sim.events_processed
        again = cluster.run_until_decided()
        assert (again.decided, again.decision_value, again.decision_time) == (
            True, "v", 2.0,
        )
        assert cluster.sim.events_processed == events

    def test_a_pid_nobody_reports_for_times_out(self):
        cluster = Cluster([_DecidesAt(0, 1.0), _Bystander(1)])
        result = cluster.run_until_decided(timeout=50.0)
        assert not result.decided and result.decision_time is None
        assert result.decision_value == "v"  # agreement among those who did
        assert not cluster.trace.all_decided([0, 1])
        # ...and so does a pid that is not in the cluster at all.
        assert not cluster.run_until_decided([0, 7], timeout=60.0).decided

    def test_re_deciding_the_same_value_changes_nothing(self):
        first, second = _DecidesAt(0, 1.0), _DecidesAt(1, 3.0)
        cluster = Cluster([first, second])
        cluster.run(until=2.0)
        first.decision_hook("v")  # e.g. a late quorum re-confirming
        assert len(cluster.trace.decisions) == 1
        result = cluster.run_until_decided()
        assert (result.decided, result.decision_time) == (True, 3.0)
        second.decision_hook("v")
        assert cluster.run_until_decided().decision_time == 3.0
        assert [d.pid for d in cluster.trace.decisions] == [0, 1]

    def test_successive_waits_on_different_pid_sets(self):
        cluster = Cluster([_DecidesAt(pid, float(pid + 1)) for pid in range(4)])
        early = cluster.run_until_decided([1, 0])
        assert (early.decided, early.decision_time, cluster.sim.now) == (True, 2.0, 2.0)
        assert not cluster.trace.all_decided([0, 1, 2])
        late = cluster.run_until_decided([3, 1])  # 1 decided under the first wait
        assert (late.decided, late.decision_time, cluster.sim.now) == (True, 4.0, 4.0)
        everyone = cluster.run_until_decided()
        assert everyone.decided and everyone.decision_time == 4.0


# ---------------------------------------------------------------------------
# Verify once per cluster
# ---------------------------------------------------------------------------


def _identity_of(payload):
    return tuple(map(id, payload)) if type(payload) is tuple else id(payload)


class TestVerifyOncePerCluster:
    def test_canonical_walks_are_bounded_by_distinct_signed_objects(
        self, run_observed, monkeypatch
    ):
        """All-to-all: every process re-checks the same signature objects
        over the same value objects.  Only the first sight of each
        (signature or certificate, payload elements) combination may
        serialize anything — so a run's top-level canonical lookups are at
        most its distinct checked combinations plus its signs."""
        registries, pinned = [], []
        tally = {"signs": 0, "checks": 0}
        distinct = set()
        real_init = KeyRegistry.__init__

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            registries.append(self)

        monkeypatch.setattr(KeyRegistry, "__init__", init)
        for name in ("verify", "verify_all"):

            def checking(self, signed, payload, real=getattr(KeyRegistry, name)):
                tally["checks"] += 1
                pinned.append((signed, payload))  # ids must stay unique
                distinct.add((id(self), id(signed), _identity_of(payload)))
                return real(self, signed, payload)

            monkeypatch.setattr(KeyRegistry, name, checking)
        real_sign = Signer.sign

        def sign(self, payload):
            tally["signs"] += 1
            return real_sign(self, payload)

        monkeypatch.setattr(Signer, "sign", sign)
        saved = 0
        for name in sorted(SCENARIOS):
            registries.clear(), pinned.clear(), distinct.clear()
            tally.update(signs=0, checks=0)
            result, _ = run_observed(name)
            assert result.ok, name
            lookups = sum(r.canonical_hits + r.canonical_misses for r in registries)
            assert lookups <= len(distinct) + tally["signs"], name
            # The counters cannot tell which memo answered.
            assert tally["checks"] <= sum(
                r.cache_hits + r.cache_misses for r in registries
            ), name
            saved += tally["checks"] + tally["signs"] - lookups
        assert saved > 500  # ...and most checks are repeats


# ---------------------------------------------------------------------------
# The queue entry is the delivery
# ---------------------------------------------------------------------------


class TestQueueEntryIsTheDelivery:
    @pytest.mark.parametrize("traced", [False, True], ids=["fast", "traced"])
    def test_a_fan_out_queues_its_delivery_function_and_arguments(self, traced):
        sim = Simulator()
        net = Network(sim, RandomDelay(seed=3))
        if traced:
            net.install_tracer(FlightRecorder())
        got = []
        for pid in range(4):
            net.register(pid, lambda src, payload, pid=pid: got.append((pid, src, payload)))
        payload = Ack("hello", 1)
        envelopes = envelopes_of(net.broadcast(2, payload))
        entries = sorted(sim._queue)
        assert [entry[1] for entry in entries] == sorted(
            range(4), key=lambda seq: (envelopes[seq].deliver_time, seq)
        )
        for entry in entries:
            time, seq, callback, args = entry
            envelope = envelopes[seq]
            assert time == envelope.deliver_time
            if traced:  # the stamped envelope rides in the entry
                assert callback == net._deliver
                assert args == (envelope._replace(trace=args[0].trace),)
                assert args[0].trace is not None
            else:
                assert callback is net._deliver_ref
                assert args == (envelope.dst, 2, payload) and args[2] is payload
        sim.run()
        assert sorted(got) == [(pid, 2, payload) for pid in range(4)]

    def test_a_released_held_message_is_queued_the_same_way(self):
        sim = Simulator()
        net = Network(sim)
        for pid in range(2):
            net.register(pid, lambda src, payload: None)
        net.start_partition([[0], [1]])
        net.send(0, 1, "held")
        assert sim.pending_events == 0
        net.heal_partition()
        ((time, _, callback, args),) = sim._queue
        assert callback == net._deliver and time == args[0].deliver_time == 1.0
        assert args[0].payload == "held"


# ---------------------------------------------------------------------------
# The SMR stop predicate scans only who is unfinished
# ---------------------------------------------------------------------------


class TestShrinkingStopPredicate:
    @pytest.fixture
    def verdicts_checked(self, run_observed, monkeypatch):
        """Runs a scenario with every verdict of the run loop's stop
        predicate compared, at the event it was asked, against the full
        scan it replaced; returns how many verdicts that was."""

        def run(scenario):
            spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
            sets = []
            real_sets = runner.durable_rejoin_sets

            def capture_sets(*args):
                sets.append(real_sets(*args))
                return sets[-1]

            monkeypatch.setattr(runner, "durable_rejoin_sets", capture_sets)
            asked = []
            real_run_until = Simulator.run_until

            def run_until(sim, predicate, **limits):
                crashed = set(spec.crashed_forever_pids)

                def full_scan():
                    (rejoining, baseline), = sets
                    owed = [c for c in clients[0] if c.pid not in crashed]
                    if not all(c.all_completed for c in owed):
                        return False
                    target = max((r.executed_upto for r in baseline), default=-1)
                    return all(
                        not r.crashed
                        and not r.catchup_active
                        and r.executed_upto >= target
                        for r in rejoining
                    )

                def checked():
                    verdict = predicate()
                    assert verdict == full_scan(), (spec.name, sim.now)
                    asked.append(verdict)
                    return verdict

                return real_run_until(sim, checked, **limits)

            monkeypatch.setattr(Simulator, "run_until", run_until)
            clients = []
            real_start = Cluster.start

            def start(cluster):
                clients.append(_clients(cluster))
                return real_start(cluster)

            monkeypatch.setattr(Cluster, "start", start)
            result, cluster = run_observed(spec)
            assert result.decided and asked[-1] is True
            assert asked.count(True) == 1  # it stopped at the first one
            return len(asked)

        return run

    @pytest.mark.parametrize("name", SMR_SCENARIOS)
    def test_verdict_equals_the_full_scan_at_every_event(
        self, verdicts_checked, name
    ):
        assert verdicts_checked(name) > 10

    def test_verdict_equals_the_full_scan_when_a_client_crashes(
        self, verdicts_checked
    ):
        base = get_scenario("smr-throughput-seed")
        spec = dataclasses.replace(
            base, name="client-crash", faults=(Crash(at=6.0, pid=base.n),)
        )
        assert verdicts_checked(spec) > 10
