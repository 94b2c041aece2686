"""Flight recorder: event capture, causal parentage, digest safety.

The recorder is a *selective* network tracer: it tells the network which
payload types it wants, unclassified traffic keeps the fast delivery
path, and the ``trace`` field it stamps is digest-invisible — so every
test here asserts both what gets recorded *and* that recording changes
nothing about the execution (the committed golden digests).
"""

import json
from pathlib import Path

from repro.core.messages import Ack, Propose
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import (
    FlightRecorder,
    TeeTracer,
    attach_observers,
)
from repro.obs.tracing import CausalTracer
from repro.scenarios.library import SCENARIOS, get_scenario
from repro.scenarios.runner import run_scenario

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

    def test_wants_verdict_is_memoized_per_type(self):
        recorder = FlightRecorder()
        first = recorder.wants(Propose)
        assert recorder.wants(Propose) is first

    def test_ring_is_bounded_and_counts_drops(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record_fault("crash", float(i), pid=0)
        assert recorder.dropped == 6
        assert len(recorder.to_dicts()) == 4
        assert recorder.header()["dropped"] == 6

    def test_dump_is_header_plus_json_lines(self, tmp_path):
        recorder = FlightRecorder()
        recorder.begin_run(scenario="unit", n=4)
        recorder.record_fault("crash", 1.0, pid=2, detail="boom")
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
# Digest safety: recording must not perturb the execution
# ---------------------------------------------------------------------------


class TestRecorderDigestSafety:
    def test_all_golden_digests_unchanged_with_recorder_attached(self):
        """Every canonical scenario, recorder on, against the committed
        goldens — byte-identical."""
        golden = json.loads(GOLDEN_PATH.read_text())
        mismatches = {}
        for name in SCENARIOS:
            recorder = FlightRecorder()
            result = run_scenario(get_scenario(name), recorder=recorder)
            if result.trace_digest != golden[name]:
                mismatches[name] = result.trace_digest
            assert recorder.emitted > 0, f"{name}: recorder saw nothing"
        assert not mismatches, (
            f"flight recorder perturbed {len(mismatches)} scenario(s): "
            f"{sorted(mismatches)}"
        )

    def test_tee_of_tracer_and_recorder_is_digest_safe(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        tracer = CausalTracer()
        recorder = FlightRecorder()
        result = run_scenario(
            get_scenario("fast-path-clean"), tracer=tracer, recorder=recorder
        )
        assert result.trace_digest == golden["fast-path-clean"]
        assert tracer.emitted > 0
        assert recorder.emitted > 0


# ---------------------------------------------------------------------------
# TeeTracer composition
# ---------------------------------------------------------------------------


class TestTeeTracer:
    def test_wants_is_the_union_of_sub_tracers(self):
        selective = FlightRecorder()
        greedy = CausalTracer()  # no wants() -> wants everything
        tee = TeeTracer(selective, greedy)
        assert tee.wants(tuple)  # greedy member keeps unclassified traffic
        assert tee.wants(Propose)
        assert not TeeTracer(selective).wants(tuple)

    def test_fanout_records_in_every_member(self):
        tracer = CausalTracer()
        recorder = FlightRecorder()
        run_scenario(
            get_scenario("fast-path-clean"), tracer=tracer, recorder=recorder
        )
        tracer_kinds = {e.kind for e in tracer.events}
        recorder_kinds = {e.kind for e in recorder.events}
        assert {"send", "deliver", "decide"} <= tracer_kinds
        assert {"propose", "vote", "cert-formed", "decide"} <= recorder_kinds

    def test_metrics_tracer_and_recorder_together(self):
        metrics = MetricsRegistry()
        tracer = CausalTracer()
        recorder = FlightRecorder()
        result = run_scenario(
            get_scenario("fast-path-clean"),
            metrics=metrics,
            tracer=tracer,
            recorder=recorder,
        )
        assert result.ok
        snapshot = metrics.to_dict()
        assert any(k.startswith("net.sent.") for k in snapshot["counters"])
        assert tracer.emitted > 0 and recorder.emitted > 0
