"""Flight recorder: event capture, causal parentage, digest safety.

The recorder is a *selective* network tracer: it tells the network which
payload types it wants, unclassified traffic keeps the fast delivery
path, and the ``trace`` field it stamps is digest-invisible — so every
test here asserts both what gets recorded *and* that recording changes
nothing about the execution (the committed golden digests).  Local
transitions reach it through the cluster's one observer, which patches
nothing — the sweep below checks that too.
"""

import json
from pathlib import Path

import pytest

from repro.baselines.paxos import PaxosAccepted, PaxosPrepare
from repro.baselines.pbft import PBFTViewChange, PrePrepare
from repro.core.messages import Ack, Propose
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.scenarios import runner
from repro.scenarios.adapters import ProgressCertificateAudit
from repro.scenarios.invariants import QuorumTally
from repro.scenarios.library import SCENARIOS, get_scenario
from repro.scenarios.runner import run_scenario
from repro.sim.runner import Cluster
from repro.smr.replica import SMRReplica

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "scenario_digests.json"

def _record(name: str):
    recorder = FlightRecorder()
    result = run_scenario(get_scenario(name), recorder=recorder)
    return result, recorder


# ---------------------------------------------------------------------------
# Unit: selective wants, ring bounds, dump format
# ---------------------------------------------------------------------------


class TestFlightRecorderUnit:
    def test_wants_protocol_payloads_only(self):
        recorder = FlightRecorder()
        assert recorder.wants(Propose)
        assert recorder.wants(Ack)
        # Bare tuples/strings are not protocol messages: the network keeps
        # its fast delivery path for them.
        assert not recorder.wants(tuple)
        assert not recorder.wants(str)

    def test_baseline_messages_classify_like_their_fbft_roles(self):
        from repro.sim.network import Envelope

        recorder = FlightRecorder()
        kinds = {}
        for payload in (
            PrePrepare("v", 3), PBFTViewChange(3, None, 0),
            PaxosPrepare(ballot=3), PaxosAccepted(ballot=3, value="v"),
        ):
            assert recorder.wants(type(payload))
            recorder.on_send(Envelope(0, 1, payload, 0.0, 1.0, 1))
            event = recorder.events[-1]
            # A Paxos ballot is read as the view.
            assert event.view == 3
            kinds[type(payload).__name__] = event.kind
        assert kinds == {
            "PrePrepare": "propose", "PBFTViewChange": "view-vote",
            "PaxosPrepare": "view-vote", "PaxosAccepted": "vote",
        }

    def test_wants_verdict_is_memoized_per_type(self):
        recorder = FlightRecorder()
        first = recorder.wants(Propose)
        assert recorder.wants(Propose) is first

    def test_ring_is_bounded_and_counts_drops(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.observe("crash", 0, float(i))
        assert recorder.dropped == 6
        assert len(recorder.to_dicts()) == 4
        assert recorder.header()["dropped"] == 6

    def test_dump_is_header_plus_json_lines(self, tmp_path):
        recorder = FlightRecorder()
        recorder.begin_run(scenario="unit", n=4)
        recorder.observe("crash", 2, 1.0, detail="boom")
        recorder.finish_run(decided=True)
        path = tmp_path / "unit.jsonl"
        recorder.dump(str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["flight"] == 1
        assert header["meta"]["scenario"] == "unit"
        assert header["meta"]["decided"] is True
        events = [json.loads(line) for line in lines[1:]]
        assert [e["kind"] for e in events] == ["crash"]
        assert events[0]["pid"] == 2

    def test_kinds_outside_the_record_are_ignored(self):
        recorder = FlightRecorder()
        for kind in ("request", "batched", "executed", "slot-latency"):
            recorder.observe(kind, 0, 1.0, 0, None, "metrics' business")
        assert recorder.emitted == 0


# ---------------------------------------------------------------------------
# Causal parentage on real runs
# ---------------------------------------------------------------------------


class TestCausalParentage:
    def test_certificate_forms_from_vote_deliveries(self):
        _result, recorder = _record("fast-path-clean")
        events = {e.id: e for e in recorder.events}
        certs = [e for e in recorder.events if e.kind == "cert-formed"]
        assert certs, "no certificate events recorded"
        for cert in certs:
            assert cert.parents, "certificate with no vote parents"
            for parent in cert.parents:
                vote = events[parent]
                assert vote.kind == "vote"
                assert vote.phase == "deliver"
                assert vote.pid == cert.pid

    def test_decide_parents_to_certificate(self):
        _result, recorder = _record("fast-path-clean")
        events = {e.id: e for e in recorder.events}
        decides = [e for e in recorder.events if e.kind == "decide"]
        assert decides
        for decide in decides:
            kinds = {events[p].kind for p in decide.parents if p in events}
            assert "cert-formed" in kinds

    def test_wal_appends_parent_to_their_decides(self):
        _result, recorder = _record("durable-recovery")
        events = {e.id: e for e in recorder.events}
        appends = [
            e for e in recorder.events
            if e.kind == "wal-append" and e.detail == "decide"
        ]
        assert appends, "durable run recorded no decide WAL appends"
        for append in appends:
            kinds = {events[p].kind for p in append.parents if p in events}
            assert kinds == {"decide"}

    def test_checkpoint_stable_collects_checkpoint_votes(self):
        _result, recorder = _record("durable-recovery")
        events = {e.id: e for e in recorder.events}
        stables = [e for e in recorder.events if e.kind == "checkpoint-stable"]
        assert stables, "durable run never stabilized a checkpoint"
        for stable in stables:
            kinds = {events[p].kind for p in stable.parents if p in events}
            assert kinds <= {"checkpoint-vote"}
            assert kinds, "stable checkpoint with no vote parents"

    def test_faults_are_recorded_as_roots(self):
        _result, recorder = _record("durable-recovery")
        kinds = [e.kind for e in recorder.events]
        assert "crash" in kinds and "recover" in kinds
        for event in recorder.events:
            if event.kind in ("crash", "recover"):
                assert event.parents == ()


# ---------------------------------------------------------------------------
# Satellite: the demotion quorum as one causal chain
# (votes -> view-floor raise -> advocate)
# ---------------------------------------------------------------------------


def _demotion_chain_ok(recorder: FlightRecorder) -> bool:
    events = {e.id: e for e in recorder.events}
    demotions = [e for e in recorder.events if e.kind == "demotion"]
    advocates = [e for e in recorder.events if e.kind == "advocate"]
    if not demotions or not advocates:
        return False
    for demotion in demotions:
        vote_kinds = {events[p].kind for p in demotion.parents if p in events}
        if not vote_kinds or not vote_kinds <= {"demotion-vote"}:
            return False
    demotion_ids = {e.id for e in demotions}
    return any(
        demotion_ids.intersection(advocate.parents) for advocate in advocates
    )


class TestDemotionCausalChain:
    def test_demotion_quorum_chains_votes_to_advocate(self):
        """A throttled leader's demotion shows up as one causal chain:
        signed demotion-vote deliveries (plus the replica's own vote)
        parent the quorum event, and the advocate that pushes slots past
        the demoted leader parents back to that quorum."""
        result, recorder = _record("slow-leader")
        assert result.ok, result.failures
        assert _demotion_chain_ok(recorder), (
            "demotion quorum did not form a votes -> demotion -> advocate "
            "chain in the flight record"
        )


# ---------------------------------------------------------------------------
# Satellite: Paxos ballot entries are view changes too
# ---------------------------------------------------------------------------


class TestPaxosBallotEntries:
    def test_every_ballot_entry_is_recorded(self):
        """``paxos-partition`` reaches ballot 2 on all three processes;
        a ballot entry goes through the same ``view_hook`` as a view
        entry (the old ``enter_view`` wrapper never found
        ``enter_ballot``)."""
        result, recorder = _record("paxos-partition")
        assert result.coverage["views"] == [2, 2, 2]
        entries = [e for e in recorder.events if e.kind == "view-change"]
        assert sorted(e.pid for e in entries) == [0, 1, 2]
        assert {e.view for e in entries} == {2}


# ---------------------------------------------------------------------------
# Satellite: the side tables are bounded by the ring
# ---------------------------------------------------------------------------


class TestSideTablesAreBounded:
    @pytest.mark.parametrize(
        "name", ["smr-throughput-seed", "byzantine-catchup-responder", "slow-leader"]
    )
    def test_waiting_votes_never_outnumber_the_ring(self, name):
        """Votes delivered *after* their decide / stable checkpoint /
        demotion wait forever; they must leave with their ring slot, or
        the tables grow with the run's slots instead of ``capacity``."""
        capacity = 64
        recorder = FlightRecorder(capacity=capacity)
        worst = [0]
        emit = recorder._emit

        def checking_emit(*event):
            eid = emit(*event)
            held = [i for ids in recorder._waiting.values() for i in ids]
            worst[0] = max(worst[0], len(held))
            # An id waits only while its event is still in the ring.
            assert min(held, default=eid) >= recorder.events[0].id
            return eid

        recorder._emit = checking_emit
        result = run_scenario(get_scenario(name), recorder=recorder)
        assert result.ok
        assert recorder.dropped > 10 * capacity, "not a many-slot run"
        assert 0 < worst[0] <= capacity
        assert all(recorder._waiting.values()), "an emptied bucket was kept"
        # Forgetting is all the bound does: what the small ring retains
        # is the tail of what an unbounded one records (certificates
        # aside — theirs are the parents the bound may drop).
        _result, unbounded = _record(name)

        def shape(events):
            return [e[2:9] for e in events if e.kind != "cert-formed"]

        kept = shape(recorder.events)
        assert kept == shape(unbounded.events)[-len(kept):]

    def test_an_unbounded_ring_changes_no_parentage(self):
        """With the default capacity nothing is evicted, so the bound
        never fires: quorum events keep exactly the parents they had."""
        _result, recorder = _record("durable-recovery")
        assert recorder.dropped == 0
        events = {e.id: e for e in recorder.events}
        for event in recorder.events:
            if event.kind in ("cert-formed", "checkpoint-stable", "demotion"):
                assert event.parents and set(event.parents) <= set(events)

    def test_a_new_run_shares_no_causality_with_the_last(self):
        """One recorder over two runs (the fuzz CLI's ``--trace-out``):
        votes left waiting by the first run are not the second's."""
        recorder = FlightRecorder()
        run_scenario(get_scenario("slow-path-commit"), recorder=recorder)
        assert recorder._waiting, "scenario leaves no post-decide votes"
        boundary = recorder.emitted
        run_scenario(get_scenario("slow-path-commit"), recorder=recorder)
        second = [e for e in recorder.events if e.id > boundary]
        assert len(second) == boundary
        assert all(p > boundary for e in second for p in e.parents)


# ---------------------------------------------------------------------------
# One sweep: observers change nothing, patch nothing, and miss nothing
# ---------------------------------------------------------------------------


@pytest.fixture
def run_observed(monkeypatch):
    """``run_scenario`` that also hands back the ``Cluster`` it ran."""
    clusters = []

    def capture(*args, **kwargs):
        clusters.append(Cluster(*args, **kwargs))
        return clusters[-1]

    monkeypatch.setattr(runner, "Cluster", capture)

    def run(name, **observers):
        result = runner.run_scenario(get_scenario(name), **observers)
        return result, clusters.pop()

    return run


class TestObserverSweep:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_observed_run_is_the_same_run_fully_recorded(
        self, run_observed, monkeypatch, name
    ):
        golden = json.loads(GOLDEN_PATH.read_text())
        # Every process with a view of its own: the bare consensus
        # processes, and every per-slot instance an SMR replica created
        # (a replica drops each one once its slot is decided).
        consensus_processes = []
        create = SMRReplica._create_instance

        def created(replica, slot, input_value):
            consensus_processes.append(create(replica, slot, input_value))
            return consensus_processes[-1]

        monkeypatch.setattr(SMRReplica, "_create_instance", created)
        recorder = FlightRecorder()
        result, cluster = run_observed(
            name, metrics=MetricsRegistry(), recorder=recorder
        )
        assert result.trace_digest == golden[name]
        # Every message of every protocol is in the record, once.
        sends = sum(1 for e in recorder.events if e.phase == "send")
        assert sends == result.messages_sent > 0
        assert recorder.dropped == 0
        # The network's send hooks are the trace and the oracles' audits
        # (none on an SMR run), and it has one tracer: observers add none.
        trace_hook, *audits = cluster.network._send_hooks
        assert trace_hook == cluster.trace.record_send
        assert [type(hook.__self__) for hook in audits] in (
            [], [QuorumTally], [QuorumTally, ProgressCertificateAudit]
        )
        if SCENARIOS[name].protocol.endswith("-smr"):
            assert not audits
        assert cluster.network._tracer is recorder
        # Nothing was patched: observers listen at hooks, they do not
        # shadow methods on other objects.
        assert "record_decision" not in vars(cluster.trace)
        for process in [*cluster.processes.values(), *consensus_processes]:
            assert not {"enter_view", "enter_ballot", "_enter_view"} & set(
                vars(process)
            )
            pacemaker = getattr(process, "pacemaker", None)
            if pacemaker is not None:
                enter = pacemaker._enter_view
                assert enter.__self__ is process
                assert enter.__func__ in (
                    getattr(type(process), "enter_view", None),
                    getattr(type(process), "enter_ballot", None),
                )


class TestObserverSeam:
    def test_every_subscriber_sees_every_event_in_order(self):
        """The cluster fans one emit out to its subscribers; what the
        recorder keeps of it is what a bystander saw."""
        seen = []
        recorder = FlightRecorder()
        spec = get_scenario("durable-recovery")
        built = runner.ADAPTERS[spec.protocol].build(spec)
        cluster = Cluster(built.processes, delay_model=spec.delay.build())
        cluster.observe(
            [lambda *event: seen.append(event), recorder.observe],
            built.honest_pids,
        )
        cluster.start()
        cluster.sim.run(until=40.0)
        recorded = [
            (e.kind, e.pid, e.time, e.slot, e.view)
            for e in recorder.events
            if e.kind != "cert-formed"
        ]
        assert recorded and recorded == [
            event[:5] for event in seen
            if event[0] not in ("request", "batched", "executed", "slot-latency")
        ]
        assert {"request", "batched", "executed"} <= {event[0] for event in seen}

    def test_byzantine_processes_are_not_observed(self, run_observed):
        """What a Byzantine replica claims to have decided is not
        evidence: only honest pids report to the observer."""
        recorder = FlightRecorder()
        metrics = MetricsRegistry()
        result, cluster = run_observed(
            "throttling-byzantine-leader", metrics=metrics, recorder=recorder
        )
        byzantine = set(result.spec.byzantine_pids)
        assert byzantine
        for pid in byzantine:
            assert cluster.processes[pid].ctx.observer is None
        local = {e.pid for e in recorder.events if e.phase == "local"}
        assert local and not (local & byzantine)
        counters = metrics.to_dict()["counters"]
        assert not any(f"replica.{pid}." in name for pid in byzantine for name in counters)

    def test_metrics_and_recorder_together(self):
        metrics = MetricsRegistry()
        recorder = FlightRecorder()
        result = run_scenario(
            get_scenario("fast-path-clean"), metrics=metrics, recorder=recorder
        )
        assert result.ok
        snapshot = metrics.to_dict()
        assert any(k.startswith("net.sent.") for k in snapshot["counters"])
        kinds = {e.kind for e in recorder.events}
        assert {"propose", "vote", "cert-formed", "decide"} <= kinds
