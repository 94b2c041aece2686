"""View-change tests for the core protocol (Figure 1b)."""

import pytest

from repro.core.certificates import ProgressCertificate
from repro.core.messages import CertAck, CertRequest, Propose, Vote

from helpers import build_cluster, make_config, record_sends


class TestCrashedLeader:
    def test_recovery_after_leader_crash(self):
        config = make_config(n=4, f=1)
        cluster = build_cluster(config, round_synchronous=False)
        cluster.process(0).crash()
        result = cluster.run_until_decided(correct_pids=[1, 2, 3], timeout=500)
        assert result.decided
        assert result.decision_value == "v1"  # leader(2)'s input

    def test_recovery_with_larger_cluster(self):
        config = make_config(n=9, f=2)
        cluster = build_cluster(config, round_synchronous=False)
        cluster.process(0).crash()
        cluster.process(1).crash()  # leader(2) also dead -> two view changes
        correct = list(range(2, 9))
        result = cluster.run_until_decided(correct_pids=correct, timeout=500)
        assert result.decided
        assert result.decision_value == "v2"

    def test_views_are_monotone(self):
        config = make_config(n=4, f=1)
        cluster = build_cluster(config, round_synchronous=False)
        cluster.process(0).crash()
        observed = []
        proc = cluster.process(2)
        original = proc.enter_view

        def spy(view):
            observed.append((proc.view, view))
            original(view)

        proc.enter_view = spy
        cluster.run_until_decided(correct_pids=[1, 2, 3], timeout=500)
        for before, target in observed:
            assert target > before or proc.view >= target

    def test_decision_after_crash_preserves_earlier_decision(self):
        """A process that decided on the fast path must end with the same
        value after later view changes."""
        config = make_config(n=4, f=1)
        cluster = build_cluster(config, round_synchronous=False)
        # Everyone decides in view 1 (no crash); keep running through a
        # forced view change and re-decision.
        result = cluster.run_until_decided(timeout=50)
        first_value = result.decision_value
        for pid in range(4):
            cluster.process(pid).enter_view(2)
        cluster.sim.run(until=cluster.sim.now + 50)
        for pid in range(4):
            assert cluster.process(pid).decided_value == first_value


class TestViewChangeMechanics:
    def _run_view_change(self, config, crash_leader=True):
        cluster = build_cluster(config, round_synchronous=False)
        sends = record_sends(cluster.network)
        if crash_leader:
            cluster.process(0).crash()
        correct = [p for p in config.process_ids if p != 0 or not crash_leader]
        result = cluster.run_until_decided(correct_pids=correct, timeout=500)
        return cluster, result, sends

    def test_votes_sent_to_new_leader_only(self):
        config = make_config(n=4, f=1)
        _, _, sends = self._run_view_change(config)
        vote_envs = [
            env for env in sends if isinstance(env.payload, Vote)
        ]
        assert vote_envs, "view change must produce votes"
        assert all(env.dst == 1 for env in vote_envs)  # leader(2) is pid 1

    def test_certificate_round_happens(self):
        config = make_config(n=4, f=1)
        cluster, _, _ = self._run_view_change(config)
        kinds = cluster.trace.messages_by_type()
        assert kinds.get("CertRequest", 0) >= 1
        assert kinds.get("CertAck", 0) >= config.cert_quorum

    def test_new_proposal_carries_valid_certificate(self):
        config = make_config(n=4, f=1)
        cluster, _, sends = self._run_view_change(config)
        proposals = [
            env.payload
            for env in sends
            if isinstance(env.payload, Propose) and env.payload.view >= 2
        ]
        assert proposals
        registry = cluster.process(1).registry
        for proposal in proposals:
            assert isinstance(proposal.cert, ProgressCertificate)
            assert proposal.cert.verify(registry, config.cert_quorum)
            assert proposal.cert.value == proposal.value

    def test_certificate_size_is_f_plus_1(self):
        config = make_config(n=9, f=2)
        cluster = build_cluster(config, round_synchronous=False)
        sends = record_sends(cluster.network)
        cluster.process(0).crash()
        result = cluster.run_until_decided(
            correct_pids=range(1, 9), timeout=500
        )
        proposals = [
            env.payload
            for env in sends
            if isinstance(env.payload, Propose) and env.payload.view >= 2
        ]
        for proposal in proposals:
            assert len(proposal.cert.signatures) == config.f + 1

    def test_adopted_vote_survives_view_change(self):
        """A process that acked in view 1 must vote for that value."""
        config = make_config(n=4, f=1)
        cluster = build_cluster(config, round_synchronous=False)
        sends = record_sends(cluster.network)
        result = cluster.run_until_decided(timeout=50)  # view-1 fast path
        value = result.decision_value
        proc = cluster.process(2)
        assert proc.vote is not None
        assert proc.vote.value == value
        proc.enter_view(2)
        vote_envs = [
            env
            for env in sends
            if isinstance(env.payload, Vote) and env.src == 2
        ]
        assert vote_envs
        assert vote_envs[-1].payload.signed.vote.value == value


class TestLeaderSide:
    def test_leader_ignores_invalid_votes(self):
        from repro.byzantine.behaviors import ByzantineForge
        from repro.core.votes import SignedVote
        from repro.crypto.keys import Signature

        config = make_config(n=4, f=1)
        cluster = build_cluster(config, round_synchronous=False)
        cluster.start()
        leader = cluster.process(1)
        leader.enter_view(2)
        # A vote whose phi is signed by someone else.
        forge = ByzantineForge(3, leader.registry, config)
        good = forge.nil_vote(2)
        forged = SignedVote(
            voter=2, vote=None, view=2, phi=Signature(2, good.phi.digest)
        )
        leader._handle_vote(2, Vote(signed=forged))
        assert 2 not in leader._lead_votes

    def test_leader_ignores_vote_with_wrong_sender(self):
        from repro.byzantine.behaviors import ByzantineForge

        config = make_config(n=4, f=1)
        cluster = build_cluster(config, round_synchronous=False)
        cluster.start()
        leader = cluster.process(1)
        leader.enter_view(2)
        forge = ByzantineForge(3, leader.registry, config)
        # pid 2 relays pid 3's vote — sender mismatch must be dropped.
        leader._handle_vote(2, Vote(signed=forge.nil_vote(2)))
        assert 2 not in leader._lead_votes
        assert 3 not in leader._lead_votes

    def test_certifier_rejects_bad_selection(self):
        """A certifier must not sign a CertAck for a value the selection
        does not admit."""
        from helpers import make_registry, make_vote_set

        config = make_config(n=4, f=1)
        registry = make_registry(config)
        cluster = build_cluster(config, registry=registry, round_synchronous=False)
        sends = record_sends(cluster.network)
        cluster.start()
        certifier = cluster.process(2)
        certifier.enter_view(2)
        votes = make_vote_set(
            registry, config, 2, {1: "x", 2: "x", 3: None}
        )
        bad_request = CertRequest(value="y", view=2, votes=tuple(votes.values()))
        before = cluster.network.stats.messages_sent
        certifier._handle_certreq(1, bad_request)
        certacks = [
            env
            for env in sends
            if isinstance(env.payload, CertAck)
        ]
        assert not certacks

    def test_certifier_accepts_good_selection(self):
        from helpers import make_registry, make_vote_set

        config = make_config(n=4, f=1)
        registry = make_registry(config)
        cluster = build_cluster(config, registry=registry, round_synchronous=False)
        sends = record_sends(cluster.network)
        cluster.start()
        certifier = cluster.process(2)
        certifier.enter_view(2)
        votes = make_vote_set(registry, config, 2, {1: "x", 2: "x", 3: None})
        good_request = CertRequest(value="x", view=2, votes=tuple(votes.values()))
        certifier._handle_certreq(1, good_request)
        certacks = [
            env for env in sends if isinstance(env.payload, CertAck)
        ]
        assert len(certacks) == 1
        assert certacks[0].dst == 1
        assert certacks[0].payload.value == "x"

    def test_certifier_rejects_duplicate_voters(self):
        from helpers import make_registry, make_vote_set

        config = make_config(n=4, f=1)
        registry = make_registry(config)
        cluster = build_cluster(config, registry=registry, round_synchronous=False)
        sends = record_sends(cluster.network)
        cluster.start()
        certifier = cluster.process(2)
        certifier.enter_view(2)
        votes = make_vote_set(registry, config, 2, {1: None, 2: None, 3: None})
        duplicated = (votes[1], votes[1], votes[2])
        certifier._handle_certreq(
            1, CertRequest(value="x", view=2, votes=duplicated)
        )
        certacks = [
            env for env in sends if isinstance(env.payload, CertAck)
        ]
        assert not certacks

    def test_certifier_rejects_small_vote_sets(self):
        from helpers import make_registry, make_vote_set

        config = make_config(n=4, f=1)
        registry = make_registry(config)
        cluster = build_cluster(config, registry=registry, round_synchronous=False)
        sends = record_sends(cluster.network)
        cluster.start()
        certifier = cluster.process(2)
        certifier.enter_view(2)
        votes = make_vote_set(registry, config, 2, {1: None, 2: None})
        certifier._handle_certreq(
            1, CertRequest(value="x", view=2, votes=tuple(votes.values()))
        )
        certacks = [
            env for env in sends if isinstance(env.payload, CertAck)
        ]
        assert not certacks
