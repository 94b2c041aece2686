"""Post-mortem explainer: load, timeline, slot/view, explain, diff.

The acceptance story: seed the relaxed-fast-quorum safety bug (the same
injected bug ``tests/test_scenarios.py`` uses), record the violating run
with a flight recorder, and check that ``explain`` names the violation
and prints a minimal causal cut containing the bad certificate's vote
deliveries.
"""

import json

import pytest

from repro.baselines.pbft import (
    PBFTCommit,
    PBFTConfig,
    PBFTProcess,
    Prepare,
    PrePrepare,
)
from repro.byzantine.behaviors import ScriptedByzantine, ScriptedSend
from repro.obs.recorder import FlightRecorder
from repro.postmortem.cli import main as pm_main
from repro.postmortem.diff import diff_dumps, render_diff
from repro.postmortem.dump import PostmortemError, load_dump
from repro.postmortem.explain import find_violations, render_explanation
from repro.postmortem.timeline import render_slot, render_timeline, render_view
from repro.scenarios.library import get_scenario
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import DelayRuleOn
from repro.sim.network import DelayRule
from repro.sim.runner import Cluster
from repro.sim.trace import ConsistencyViolation

#: Delay rule that hides two of the three honest acks from p3, so the
#: relaxed fast quorum below accepts a certificate containing the
#: Byzantine leader's vote (see tests/test_scenarios.py).
_STALL_MAJORITY_ACKS = (
    DelayRuleOn(
        at=0.0,
        name="stall-majority-acks",
        src=(1, 2),
        dst=(3,),
        payload_types=("Ack",),
        extra_delay=5.0,
    ),
)


def _buggy_spec():
    return get_scenario("equivocating-leader").with_(
        faults=_STALL_MAJORITY_ACKS,
        name="eq-buggy",
        protocol_options={"fast_quorum_delta": 1},
    )


def _dump_run(spec, path) -> str:
    recorder = FlightRecorder()
    run_scenario(spec, recorder=recorder)
    recorder.dump(str(path))
    return str(path)


@pytest.fixture(scope="module")
def buggy_dump(tmp_path_factory):
    """Flight dump of the injected safety violation (consensus mode)."""
    path = tmp_path_factory.mktemp("pm") / "eq-buggy.jsonl"
    return _dump_run(_buggy_spec(), path)


class _RelaxedPBFTConfig(PBFTConfig):
    """Deliberately unsafe: ``f + 1`` prepares / commits decide."""

    prepare_quorum = commit_quorum = 2


@pytest.fixture(scope="module")
def pbft_dump(tmp_path_factory):
    """Flight dump of a PBFT disagreement: an equivocating (unsigned, so
    scriptable) leader splits three honest replicas whose relaxed quorums
    let one of them — the majority's votes reach it late — commit on its
    own vote plus the leader's."""
    config = _RelaxedPBFTConfig(n=4, f=1)
    to_majority = (PrePrepare("A", 1),)
    to_victim = (PrePrepare("B", 1), Prepare("B", 1), PBFTCommit("B", 1))
    leader = ScriptedByzantine(0, [
        *(ScriptedSend(0.0, (1, 2), payload) for payload in to_majority),
        *(ScriptedSend(0.0, (3,), payload) for payload in to_victim),
    ])
    cluster = Cluster(
        [leader, *(PBFTProcess(pid, config, f"v{pid}") for pid in (1, 2, 3))]
    )
    cluster.network.set_delay_rule(
        DelayRule("stall-majority", extra_delay=5.0, src={1, 2}, dst={3})
    )
    recorder = FlightRecorder()
    recorder.begin_run(scenario="pbft-split", protocol="pbft", honest_pids=[1, 2, 3])
    cluster.network.install_tracer(recorder)
    cluster.observe([recorder.observe], pids=(1, 2, 3))
    with pytest.raises(ConsistencyViolation):
        cluster.run_until_decided(correct_pids=(1, 2, 3), timeout=50.0)
    path = tmp_path_factory.mktemp("pm") / "pbft-split.jsonl"
    recorder.dump(str(path))
    return str(path)


@pytest.fixture(scope="module")
def durable_dump(tmp_path_factory):
    """Flight dump of a clean durable run (SMR mode: slots, WAL,
    checkpoints, a crash/recover fault pair)."""
    path = tmp_path_factory.mktemp("pm") / "durable.jsonl"
    return _dump_run(get_scenario("durable-recovery"), path)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


class TestLoadDump:
    def test_roundtrip_header_and_events(self, durable_dump):
        dump = load_dump(durable_dump)
        assert dump.meta["scenario"] == "durable-recovery"
        assert dump.meta["decided"] is True
        assert dump.events
        assert set(dump.by_id) == {e.id for e in dump.events}

    def test_slots_views_and_decides(self, durable_dump):
        dump = load_dump(durable_dump)
        assert dump.slots(), "SMR dump carries per-slot events"
        assert dump.decides()
        for decide in dump.decides():
            assert decide.kind == "decide"

    def test_ancestors_closure(self, durable_dump):
        dump = load_dump(durable_dump)
        decide = dump.decides()[0]
        cut = dump.causal_cut([decide.id])
        assert decide.id in {e.id for e in cut}
        ids = {e.id for e in cut}
        # The closure is closed under in-record parentage.
        for event in cut:
            for parent in event.parents:
                if parent in dump.by_id:
                    assert parent in ids

    def test_rejects_non_dump_files(self, tmp_path):
        bad = tmp_path / "not-a-dump.jsonl"
        bad.write_text('{"some": "json"}\n', encoding="utf-8")
        with pytest.raises(PostmortemError):
            load_dump(str(bad))
        with pytest.raises(PostmortemError):
            load_dump(str(tmp_path / "missing.jsonl"))


# ---------------------------------------------------------------------------
# Timelines
# ---------------------------------------------------------------------------


class TestTimelines:
    def test_full_timeline_mentions_run_and_events(self, durable_dump):
        dump = load_dump(durable_dump)
        text = render_timeline(dump)
        assert "durable-recovery" in text
        assert "propose" in text and "decide" in text
        assert "crash" in text and "recover" in text

    def test_limit_elides_early_events(self, durable_dump):
        dump = load_dump(durable_dump)
        text = render_timeline(dump, limit=5)
        assert "earlier events elided" in text
        assert len(text.splitlines()) < len(dump.events)

    def test_slot_story(self, durable_dump):
        dump = load_dump(durable_dump)
        slot = dump.slots()[0]
        text = render_slot(dump, slot)
        assert f"slot {slot}:" in text
        assert "decisions:" in text

    def test_missing_slot_lists_known_slots(self, durable_dump):
        dump = load_dump(durable_dump)
        text = render_slot(dump, 10**6)
        assert "no events for slot" in text

    def test_view_story(self, buggy_dump):
        dump = load_dump(buggy_dump)
        view = dump.views()[0]
        text = render_view(dump, view)
        assert f"view {view}:" in text


# ---------------------------------------------------------------------------
# Explain — the acceptance criterion
# ---------------------------------------------------------------------------


class TestExplain:
    def test_finds_the_injected_violation(self, buggy_dump):
        dump = load_dump(buggy_dump)
        violations = find_violations(dump)
        assert violations, "explainer missed the recorded safety violation"
        decided = {f"p{e.pid}": e.detail for v in violations for e in v.decides}
        assert len(set(decided.values())) > 1, "no conflicting values found"

    def test_explanation_names_conflict_and_prints_vote_cut(self, buggy_dump):
        dump = load_dump(buggy_dump)
        text, found = render_explanation(dump)
        assert found
        assert "conflicting decisions" in text
        assert "minimal causal cut" in text
        # The cut must contain the bad certificate's vote deliveries —
        # the deliveries that let the relaxed quorum accept the
        # equivocating leader's vote.
        cut_lines = [line for line in text.splitlines() if "#" in line]
        vote_lines = [
            line for line in cut_lines
            if " vote " in line and " deliver " in line
        ]
        assert vote_lines, "causal cut carries no certificate vote deliveries"

    def test_pbft_disagreement_cut_lists_its_vote_deliveries(self, pbft_dump):
        """The baselines' traffic is in the record too, so a PBFT
        disagreement is explained from its prepares and commits."""
        dump = load_dump(pbft_dump)
        (violation,) = find_violations(dump)
        assert violation.values == ["'A'", "'B'"]
        text, found = render_explanation(dump)
        assert found and "conflicting decisions" in text
        cut = dump.causal_cut([e.id for e in violation.decides])
        votes = [e for e in cut if e.kind == "vote" and e.phase == "deliver"]
        assert f"({len(votes)} certificate vote deliveries)" in text
        # The victim's certificate: its own votes and the leader's,
        # nothing from the honest majority.
        assert {e.peer for e in votes if e.pid == 3} == {0, 3}
        assert {e.peer for e in votes if e.pid == 1} >= {1, 2}
        # ... and the equivocation itself: every proposal is p0's.
        proposals = [e for e in cut if e.kind == "propose" and e.phase == "deliver"]
        assert {e.pid for e in proposals} == {1, 2, 3}
        assert {e.peer for e in proposals} == {0}

    def test_cut_lines_flag_parents_the_ring_evicted(self, tmp_path):
        recorder = FlightRecorder(capacity=24)
        run_scenario(_buggy_spec(), recorder=recorder)
        path = tmp_path / "tail.jsonl"
        recorder.dump(str(path))
        dump = load_dump(str(path))
        assert dump.dropped > 0
        lost = {
            parent
            for event in dump.events
            for parent in event.parents
            if parent not in dump.by_id
        }
        assert lost
        timeline = render_timeline(dump)
        for parent in lost:
            assert f"[chain broken: parent {parent} evicted]" in timeline
        # The violation is in the tail; its cut stops where the ring
        # did, and says so on the lines that lost a parent.
        text, found = render_explanation(dump)
        assert found and "chain broken" in text

    def test_clean_dump_has_no_violation(self, durable_dump):
        dump = load_dump(durable_dump)
        text, found = render_explanation(dump)
        assert not found
        assert "no violation" in text.lower()

    def test_cli_exit_codes(self, buggy_dump, durable_dump, capsys):
        assert pm_main(["explain", buggy_dump]) == 0
        assert pm_main(["explain", durable_dump]) == 1
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Diff
# ---------------------------------------------------------------------------


class TestDiff:
    def test_identical_reruns_diff_clean(self, tmp_path, capsys):
        a = _dump_run(get_scenario("fast-path-clean"), tmp_path / "a.jsonl")
        b = _dump_run(get_scenario("fast-path-clean"), tmp_path / "b.jsonl")
        dump_a, dump_b = load_dump(a), load_dump(b)
        assert diff_dumps(dump_a, dump_b) is None
        text, identical = render_diff(dump_a, dump_b, "a", "b")
        assert identical
        assert "identical" in text
        assert pm_main(["diff", a, b]) == 0
        capsys.readouterr()

    def test_divergent_dumps_report_first_divergence(
        self, buggy_dump, tmp_path, capsys
    ):
        clean = _dump_run(
            get_scenario("equivocating-leader"), tmp_path / "clean.jsonl"
        )
        dump_clean, dump_buggy = load_dump(clean), load_dump(buggy_dump)
        divergence = diff_dumps(dump_clean, dump_buggy)
        assert divergence is not None
        text, identical = render_diff(dump_clean, dump_buggy, "clean", "buggy")
        assert not identical
        assert pm_main(["diff", clean, buggy_dump]) == 1
        capsys.readouterr()


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


class TestCli:
    def test_timeline_slot_view_verbs(self, durable_dump, capsys):
        assert pm_main(["timeline", durable_dump, "--limit", "10"]) == 0
        out = capsys.readouterr().out
        assert "durable-recovery" in out
        dump = load_dump(durable_dump)
        assert pm_main(["slot", durable_dump, str(dump.slots()[0])]) == 0
        assert pm_main(["view", durable_dump, "1"]) == 0
        capsys.readouterr()

    def test_unreadable_dump_exits_2(self, tmp_path, capsys):
        assert pm_main(["timeline", str(tmp_path / "nope.jsonl")]) == 2
        capsys.readouterr()
