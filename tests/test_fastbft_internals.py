"""White-box tests for protocol-engine internals: buffering, leader state
machine, certack handling, and wire-vote construction."""

import pytest

from repro.byzantine.behaviors import ByzantineForge
from repro.core.fastbft import FastBFTProcess
from repro.core.generalized import GeneralizedFBFTProcess
from repro.core.messages import CertAck, CertRequest, Propose, Vote
from repro.sim.network import SynchronousDelay
from repro.sim.runner import Cluster

from helpers import (
    build_cluster,
    make_config,
    make_registry,
    make_vote_set,
    record_sends,
)


class TestFutureMessageBuffering:
    def test_buffered_messages_replayed_on_entry(self):
        config = make_config(n=4, f=1)
        registry = make_registry(config)
        cluster = build_cluster(config, registry=registry, round_synchronous=False)
        sends = record_sends(cluster.network)
        cluster.start()
        proc = cluster.process(2)
        # A valid view-2 CertRequest arrives before process 2 enters view 2.
        votes = make_vote_set(registry, config, 2, {1: None, 2: None, 3: None})
        request = CertRequest(value="z", view=2, votes=tuple(votes.values()))
        proc._dispatch(1, request)
        certacks = [
            e for e in sends if isinstance(e.payload, CertAck)
        ]
        assert not certacks  # buffered, not processed
        proc.enter_view(2)
        certacks = [
            e for e in sends if isinstance(e.payload, CertAck)
        ]
        assert len(certacks) == 1  # replayed on entry

    def test_stale_buffers_dropped_when_skipping_views(self):
        config = make_config(n=4, f=1)
        registry = make_registry(config)
        cluster = build_cluster(config, registry=registry, round_synchronous=False)
        cluster.start()
        proc = cluster.process(2)
        forge = ByzantineForge(1, registry, config)
        proc._dispatch(1, forge.propose("v2", 2))
        assert 2 in proc._future
        proc.enter_view(3)  # jumps straight past view 2
        assert 2 not in proc._future

    def test_stale_messages_ignored_outright(self):
        config = make_config(n=4, f=1)
        registry = make_registry(config)
        cluster = build_cluster(config, registry=registry, round_synchronous=False)
        cluster.start()
        proc = cluster.process(2)
        proc.enter_view(3)
        forge = ByzantineForge(1, registry, config)
        proc._dispatch(1, forge.propose("old", 2))
        assert 2 not in proc._future
        assert proc.vote is None


class TestLeaderStateMachine:
    def _leader_in_view2(self, config=None):
        config = config or make_config(n=4, f=1)
        registry = make_registry(config)
        cluster = build_cluster(
            config, registry=registry, round_synchronous=False,
            pacemaker_enabled=False,
        )
        sends = record_sends(cluster.network)
        cluster.start()
        leader = cluster.process(1)
        for pid in config.process_ids:
            cluster.process(pid).enter_view(2)
        return cluster, leader, registry, config, sends

    def test_leader_runs_selection_once_quorum_reached(self):
        cluster, leader, registry, config, _ = self._leader_in_view2()
        cluster.sim.run(until=cluster.sim.now + 2)
        assert leader._lead_certreq_sent
        assert leader._lead_selected == leader.input_value  # all-nil votes

    def test_certack_for_wrong_value_ignored(self):
        cluster, leader, registry, config, _ = self._leader_in_view2()
        cluster.sim.run(until=cluster.sim.now + 2)
        forge = ByzantineForge(3, registry, config)
        leader._handle_certack(3, forge.cert_ack("WRONG", 2))
        assert 3 not in leader._lead_certacks

    def test_certack_with_mismatched_signer_ignored(self):
        from repro.crypto.keys import Signature

        cluster, leader, registry, config, _ = self._leader_in_view2()
        cluster.sim.run(until=cluster.sim.now + 2)
        forge = ByzantineForge(3, registry, config)
        good = forge.cert_ack(leader._lead_selected, 2)
        faked = CertAck(
            value=good.value, view=2,
            phi=Signature(signer=2, digest=good.phi.digest),
        )
        leader._handle_certack(2, faked)
        assert 2 not in leader._lead_certacks

    def test_leader_proposes_exactly_once_per_view(self):
        cluster, leader, registry, config, sends = self._leader_in_view2()
        cluster.sim.run(until=cluster.sim.now + 10)
        proposals = [
            e for e in sends
            if isinstance(e.payload, Propose) and e.src == 1
        ]
        views = [p.payload.view for p in proposals]
        assert views.count(2) <= config.n  # one broadcast = n sends
        distinct_payloads = {p.payload for p in proposals if p.payload.view == 2}
        assert len(distinct_payloads) == 1

    def test_non_leader_ignores_votes(self):
        config = make_config(n=4, f=1)
        registry = make_registry(config)
        cluster = build_cluster(config, registry=registry, round_synchronous=False)
        cluster.start()
        bystander = cluster.process(2)
        bystander.enter_view(2)  # leader(2) = 1, not 2
        forge = ByzantineForge(3, registry, config)
        bystander._handle_vote(3, Vote(signed=forge.nil_vote(2)))
        assert 3 not in bystander._lead_votes


class TestWireVotes:
    def test_vanilla_wire_vote_never_carries_commit_cert(self):
        config = make_config(n=9, f=2)
        registry = make_registry(config)
        cluster = build_cluster(config, registry=registry)
        result = cluster.run_until_decided()
        proc = cluster.process(2)
        assert proc._wire_vote().commit_cert is None

    def test_generalized_wire_vote_carries_latest_commit_cert(self):
        from repro.core.certificates import CommitCertificate
        from repro.core.payloads import ack_payload

        config = make_config(n=7, f=2, t=1)
        registry = make_registry(config)
        cluster = build_cluster(config, registry=registry, generalized=True)
        result = cluster.run_until_decided()
        proc = cluster.process(2)
        # The protocol already built a view-1 commit certificate for the
        # decided value through its own AckSig machinery; a later-view
        # certificate must supersede it on the wire.
        payload = ack_payload("v2", 2)
        cc = CommitCertificate(
            value="v2",
            view=2,
            signatures=tuple(
                registry.signer(p).sign(payload)
                for p in range(config.commit_quorum)
            ),
        )
        proc._note_commit_cert(cc)
        assert proc._wire_vote().commit_cert == cc

    def test_note_commit_cert_keeps_highest_view(self):
        from repro.core.certificates import CommitCertificate

        config = make_config(n=7, f=2, t=1)
        registry = make_registry(config)
        cluster = build_cluster(config, registry=registry, generalized=True)
        cluster.start()
        proc = cluster.process(2)
        low = CommitCertificate(value="a", view=1, signatures=())
        high = CommitCertificate(value="b", view=3, signatures=())
        proc._note_commit_cert(high)
        proc._note_commit_cert(low)
        assert proc.latest_commit_cert == high


class TestDecideIdempotence:
    def test_redeciding_same_value_is_silent(self):
        config = make_config(n=4, f=1)
        cluster = build_cluster(config)
        result = cluster.run_until_decided()
        proc = cluster.process(1)
        proc.decide(result.decision_value)  # no exception
        assert proc.decided_value == result.decision_value

    def test_conflicting_decide_raises_consistency_violation(self):
        from repro.sim.trace import ConsistencyViolation

        config = make_config(n=4, f=1)
        cluster = build_cluster(config)
        result = cluster.run_until_decided()
        proc = cluster.process(1)
        with pytest.raises(ConsistencyViolation):
            proc.decide("something-else")
