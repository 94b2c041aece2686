"""Unit tests for vote records and their validation."""

import pytest

from repro.core.payloads import propose_payload, vote_payload
from repro.core.votes import (
    SignedVote,
    VoteRecord,
    signed_vote_valid,
    vote_record_valid,
)
from repro.crypto.keys import Signature

from helpers import (
    make_config,
    make_progress_cert,
    make_registry,
    make_signed_vote,
    make_vote_record,
)


@pytest.fixture
def config():
    return make_config(n=9, f=2)


@pytest.fixture
def registry(config):
    return make_registry(config)


class TestVoteRecord:
    def test_valid_view1_vote(self, config, registry):
        vote = make_vote_record(registry, config, "x", 1)
        assert vote.cert is None
        assert vote_record_valid(vote, registry, config)

    def test_valid_later_view_vote(self, config, registry):
        vote = make_vote_record(registry, config, "x", 3)
        assert vote_record_valid(vote, registry, config)

    def test_tau_must_come_from_that_views_leader(self, config, registry):
        # leader(2) is pid 1; a tau signed by pid 2 must be rejected.
        tau = registry.signer(2).sign(propose_payload("x", 2))
        vote = VoteRecord(
            value="x",
            view=2,
            cert=make_progress_cert(registry, config, "x", 2),
            tau=tau,
        )
        assert not vote_record_valid(vote, registry, config)

    def test_tau_over_wrong_value_rejected(self, config, registry):
        leader = config.leader_of(2)
        tau = registry.signer(leader).sign(propose_payload("other", 2))
        vote = VoteRecord(
            value="x",
            view=2,
            cert=make_progress_cert(registry, config, "x", 2),
            tau=tau,
        )
        assert not vote_record_valid(vote, registry, config)

    def test_missing_cert_for_late_view_rejected(self, config, registry):
        leader = config.leader_of(3)
        tau = registry.signer(leader).sign(propose_payload("x", 3))
        vote = VoteRecord(value="x", view=3, cert=None, tau=tau)
        assert not vote_record_valid(vote, registry, config)

    def test_cert_for_different_value_rejected(self, config, registry):
        leader = config.leader_of(3)
        tau = registry.signer(leader).sign(propose_payload("x", 3))
        vote = VoteRecord(
            value="x",
            view=3,
            cert=make_progress_cert(registry, config, "y", 3),
            tau=tau,
        )
        assert not vote_record_valid(vote, registry, config)

    def test_invalid_commit_cert_rejected(self, config, registry):
        from repro.core.certificates import CommitCertificate

        bad_cc = CommitCertificate(value="x", view=1, signatures=())
        vote = make_vote_record(registry, config, "x", 1, commit_cert=bad_cc)
        assert not vote_record_valid(vote, registry, config)

    def test_valid_commit_cert_accepted(self, config, registry):
        from repro.core.certificates import CommitCertificate
        from repro.core.payloads import ack_payload

        payload = ack_payload("x", 1)
        cc = CommitCertificate(
            value="x",
            view=1,
            signatures=tuple(
                registry.signer(p).sign(payload)
                for p in range(config.commit_quorum)
            ),
        )
        vote = make_vote_record(registry, config, "x", 1, commit_cert=cc)
        assert vote_record_valid(vote, registry, config)


class TestSignedVote:
    def test_valid_nil_vote(self, config, registry):
        signed = make_signed_vote(registry, config, 3, None, 2)
        assert signed.vote is None
        assert signed_vote_valid(signed, 2, registry, config)

    def test_valid_non_nil_vote(self, config, registry):
        vote = make_vote_record(registry, config, "x", 1)
        signed = make_signed_vote(registry, config, 3, vote, 2)
        assert signed_vote_valid(signed, 2, registry, config)

    def test_wrong_view_rejected(self, config, registry):
        signed = make_signed_vote(registry, config, 3, None, 2)
        assert not signed_vote_valid(signed, 3, registry, config)

    def test_phi_signer_must_match_voter(self, config, registry):
        phi = registry.signer(4).sign(vote_payload(None, 2))
        signed = SignedVote(voter=3, vote=None, view=2, phi=phi)
        assert not signed_vote_valid(signed, 2, registry, config)

    def test_cannot_forge_anothers_nil_vote(self, config, registry):
        """A Byzantine process cannot claim someone else voted nil."""
        phi = registry.signer(3).sign(vote_payload(None, 2))
        forged = SignedVote(
            voter=5, vote=None, view=2, phi=Signature(signer=5, digest=phi.digest)
        )
        assert not signed_vote_valid(forged, 2, registry, config)

    def test_vote_view_must_precede_current_view(self, config, registry):
        # A vote claiming a proposal from the current (or a future) view
        # is malformed.
        vote = make_vote_record(registry, config, "x", 2)
        signed = make_signed_vote(registry, config, 3, vote, 2)
        assert not signed_vote_valid(signed, 2, registry, config)

    def test_tampered_vote_content_rejected(self, config, registry):
        vote = make_vote_record(registry, config, "x", 1)
        signed = make_signed_vote(registry, config, 3, vote, 2)
        tampered_vote = VoteRecord(
            value="y", view=1, cert=None, tau=vote.tau
        )
        tampered = SignedVote(
            voter=3, vote=tampered_vote, view=2, phi=signed.phi
        )
        assert not signed_vote_valid(tampered, 2, registry, config)

    def test_invalid_inner_record_rejected(self, config, registry):
        tau = registry.signer(5).sign(propose_payload("x", 1))  # not leader(1)
        bad_vote = VoteRecord(value="x", view=1, cert=None, tau=tau)
        signed = make_signed_vote(registry, config, 3, bad_vote, 2)
        assert not signed_vote_valid(signed, 2, registry, config)
